//! `served.gcc-2t`: the same ingest and restore behind `proto` framing,
//! `server` sessions and the `tenant` registry — an in-process `serve()` on
//! loopback, one closed-loop `RemoteClient` per tenant.

use std::io::Cursor;
use std::path::Path;
use std::sync::Barrier;
use std::time::Instant;

use hidestore_core::{HiDeStore, HiDeStoreError, RepositoryHandle};
use hidestore_proto::{read_frame, write_frame, FrameKind, Limits, TenantId};
use hidestore_restore::Faa;
use hidestore_server::{serve, RemoteClient, ServerConfig, DATA_CHUNK};
use hidestore_storage::VersionId;
use hidestore_workloads::VersionStream;

use crate::trace::Tracer;
use crate::workload::{checksum64, config, timed, Layers, Res, Round, Workload};

/// What one client thread measured.
struct ClientRun {
    backup_ops_s: Vec<f64>,
    backup_bytes: u64,
    restore_ops_s: Vec<f64>,
    restore_bytes: u64,
    first_pass: (u64, u64),
    wrong: u64,
    layers: Layers,
}

/// Encodes `data` as DATA frames into memory and decodes them again: the
/// codec's share of one transfer, with no socket under it.
fn frame_round_trip(data: &[u8]) -> Res<usize> {
    let mut wire = Vec::with_capacity(data.len() + data.len() / DATA_CHUNK * 16 + 64);
    for chunk in data.chunks(DATA_CHUNK) {
        write_frame(&mut wire, FrameKind::Data, chunk)?;
    }
    write_frame(&mut wire, FrameKind::End, &[])?;
    let mut reader = Cursor::new(wire);
    let mut decoded = 0;
    loop {
        let frame = read_frame(&mut reader, &Limits::default())?;
        if frame.kind == FrameKind::End {
            return Ok(decoded);
        }
        decoded += frame.payload.len();
    }
}

/// Total bytes of the regular files under `dir`.
fn dir_size(dir: &Path) -> std::io::Result<u64> {
    let mut total = 0;
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let meta = entry.metadata()?;
        total += if meta.is_dir() {
            dir_size(&entry.path())?
        } else {
            meta.len()
        };
    }
    Ok(total)
}

/// Prices what the daemon added to one remote op that took `remote_s`: the
/// same op on the local shadow handle (`local`), and `payload`'s trip through
/// the frame codec — both as child spans of the op.
fn price_remote_op(
    tracer: &mut Tracer,
    layers: &mut Layers,
    (root, op): (Option<usize>, u64),
    remote_s: f64,
    payload: &[u8],
    (name, local): (&'static str, impl FnOnce() -> Result<(), HiDeStoreError>),
) -> Res<()> {
    let (done, local_s) = tracer.leaf(name, root, op, local);
    done?;
    let (framed, frame_s) = tracer.leaf("proto.frame", root, op, || frame_round_trip(payload));
    framed?;
    layers.add("_remote_s", remote_s);
    layers.add("_local_s", local_s);
    layers.add("proto.frame.busy_s", frame_s);
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn client(
    w: &Workload,
    index: usize,
    tenant: &TenantId,
    versions: &[Vec<u8>],
    addr: std::net::SocketAddr,
    shadow_dir: &Path,
    phase: &Barrier,
    tracer: &mut Tracer,
) -> Res<ClientRun> {
    let mut client = RemoteClient::connect(addr)?.with_tenant(tenant.clone())?;
    // The same ops on a local handle, to price what the daemon adds.
    let shadow = if tracer.on() {
        std::fs::create_dir_all(shadow_dir)?;
        config().save_to(shadow_dir)?;
        Some(RepositoryHandle::open(shadow_dir)?)
    } else {
        None
    };
    let mut run = ClientRun {
        backup_ops_s: Vec::new(),
        backup_bytes: 0,
        restore_ops_s: Vec::new(),
        restore_bytes: 0,
        first_pass: (0, 0),
        wrong: 0,
        layers: Layers::default(),
    };
    // Op ids are unique across clients: the tenant index is the high part.
    let mut op = (index as u64) << 32;
    let expected: Vec<(usize, u64)> = versions.iter().map(|v| (v.len(), checksum64(v))).collect();

    phase.wait();
    for data in versions {
        op += 1;
        let root = tracer.begin("op.backup", None, op);
        let (summary, remote_s) =
            tracer.leaf("server.backup", root, op, || client.backup_bytes(data));
        let summary = summary?;
        run.backup_ops_s.push(remote_s);
        run.backup_bytes += summary.logical_bytes;
        run.layers
            .add("core.ingest.cold_chunks", summary.cold_chunks as f64);
        if let Some(shadow) = &shadow {
            let (local, local_s) = tracer.leaf("local.backup", root, op, || {
                shadow.write(|s| s.backup(data).map(|_| ()))
            });
            local?;
            let (framed, frame_s) = tracer.leaf("proto.frame", root, op, || frame_round_trip(data));
            framed?;
            run.layers.add("_remote_s", remote_s);
            run.layers.add("_local_s", local_s);
            run.layers.add("proto.frame.busy_s", frame_s);
        }
        tracer.end(root);
    }
    run.layers.set("tenant.open_s", run.backup_ops_s[0]);

    phase.wait();
    let mut sink: Vec<u8> = Vec::new();
    for pass in 0..w.passes {
        for (i, want) in expected.iter().enumerate() {
            let version = i as u32 + 1;
            sink.clear();
            op += 1;
            let root = tracer.begin("op.restore", None, op);
            let (summary, remote_s) = tracer.leaf("server.restore", root, op, || {
                client.restore_to(version, &mut sink)
            });
            let summary = summary?;
            run.restore_ops_s.push(remote_s);
            run.restore_bytes += summary.bytes_restored;
            run.wrong += u64::from((sink.len(), checksum64(&sink)) != *want);
            if pass == 0 {
                run.first_pass.0 += summary.bytes_restored;
                run.first_pass.1 += summary.container_reads;
            }
            run.layers.add("_cache_hits", summary.cache_hits as f64);
            run.layers.add("_cache_misses", summary.cache_misses as f64);
            if let Some(shadow) = &shadow {
                let mut local_sink = Vec::with_capacity(sink.len());
                let local = || {
                    shadow.read_snapshot(|s| {
                        let mut cache = Faa::new(32 << 20);
                        s.restore(VersionId::new(version), &mut cache, &mut local_sink)
                            .map(|_| ())
                    })
                };
                let layers = &mut run.layers;
                price_remote_op(
                    tracer,
                    layers,
                    (root, op),
                    remote_s,
                    &sink,
                    ("local.restore", local),
                )?;
            }
            tracer.end(root);
        }
    }
    Ok(run)
}

/// One round: a fresh tenant root under `work`, the daemon started, every
/// tenant's versions backed up then restored `passes` times by its own
/// client, the daemon stopped, and every tenant repository scrubbed.
pub fn round(
    w: &Workload,
    tenants: usize,
    seed: u64,
    work: &Path,
    tracer: &mut Tracer,
) -> Res<Round> {
    let root = work.join("served");
    let mut r = Round::new(tenants as u32);

    // Set-up: every client's inputs are generated up front so that no
    // client's think time leaves the other running alone.
    let (inputs, gen_s) = timed(|| {
        (0..tenants)
            .map(|t| {
                let spec = w.profile.spec().scaled(w.bytes, w.versions);
                VersionStream::new(spec, seed.wrapping_add(t as u64).wrapping_mul(0x9E37_79B9))
                    .all_versions()
            })
            .collect::<Vec<_>>()
    });
    std::fs::create_dir_all(&root)?;
    config().save_to(&root)?;
    let handle = serve(
        &root,
        ServerConfig {
            workers: tenants,
            quiet: true,
            tenants_root: true,
            ..ServerConfig::default()
        },
    )?;
    r.layers.set("workloads.gen_s", gen_s);

    let ids: Vec<TenantId> = (0..tenants)
        .map(|t| TenantId::new(&format!("tenant{t}")))
        .collect::<Result<_, _>>()?;
    let phase = Barrier::new(tenants);
    let epoch = tracer.epoch();
    let on = tracer.on();
    let addr = handle.addr();
    // The calibration kernel must not share the cores with the clients, so
    // it runs before and after them and every op takes the mean factor.
    let before = r.speed.factor();
    let wall = Instant::now();
    let runs: Vec<Res<(ClientRun, Tracer)>> = std::thread::scope(|scope| {
        let clients: Vec<_> = (0..tenants)
            .map(|t| {
                let (id, versions, phase) = (&ids[t], &inputs[t], &phase);
                let shadow_dir = work.join(format!("shadow{t}"));
                scope.spawn(move || {
                    let mut tracer = Tracer::with_epoch(on, epoch);
                    client(w, t, id, versions, addr, &shadow_dir, phase, &mut tracer)
                        .map(|run| (run, tracer))
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| {
                c.join()
                    .unwrap_or_else(|_| Err("client thread panicked".into()))
            })
            .collect()
    });
    r.op_wall_s = wall.elapsed().as_secs_f64();
    let factor = (before + r.speed.factor()) / 2.0;

    let live = handle.tenant_stats().len();
    let stats = handle.shutdown_and_join();
    for run in runs {
        let (run, spans) = run?;
        r.attempted += (run.backup_ops_s.len() + run.restore_ops_s.len()) as u64;
        r.failed += run.wrong;
        r.backup_ops_s
            .extend(run.backup_ops_s.iter().map(|s| s * factor));
        r.backup_bytes += run.backup_bytes;
        r.restore_ops_s
            .extend(run.restore_ops_s.iter().map(|s| s * factor));
        r.restore_bytes += run.restore_bytes;
        r.first_pass.0 += run.first_pass.0;
        r.first_pass.1 += run.first_pass.1;
        r.layers.absorb(&run.layers);
        tracer.absorb(spans);
    }
    // First-touch latency is a per-tenant figure: report the mean.
    r.layers.set(
        "tenant.open_s",
        r.layers.get("tenant.open_s") / tenants as f64,
    );
    r.layers.set("tenant.live", live as f64);
    r.layers
        .set("server.requests_failed", stats.requests_failed as f64);
    r.layers
        .set("_wire_bytes", (stats.bytes_in + stats.bytes_out) as f64);
    r.failed += stats.requests_failed;

    r.stored_bytes = dir_size(&root)?;
    for id in &ids {
        let dir = root.join("tenants").join(id.as_str());
        let mut hds = HiDeStore::open_repository(config(), &dir)?;
        r.scrubbed(hds.scrub()?.is_clean());
    }
    Ok(r)
}
