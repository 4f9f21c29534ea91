#!/usr/bin/env sh
# Repository CI gate. Run from the workspace root:
#
#     ./ci.sh
#
# Twelve checks, in order of increasing cost; the script stops at the first
# failure:
#
#   1. cargo fmt --check            -- formatting drift
#   2. cargo xtask analyze          -- static-analysis wall: Vfs I/O
#                                      discipline, lock discipline, wire
#                                      safety, panic-free library code,
#                                      panic markers, crate-root attributes,
#                                      raw-socket use outside failpoint's
#                                      Socket, and one path per decision
#                                      (std::thread::scope only in
#                                      hidestore_hash's map_ordered)
#   3. clippy + rustdoc -D warnings -- clippy across every target, then
#                                      the workspace docs, so a deletion
#                                      cannot leave a dangling doc link
#   4. cargo test -q                -- the full workspace test suite
#   5. crash matrix (release)       -- crash-at-every-I/O-site recovery sweep
#                                      of the backup/save/delete lifecycle
#                                      and of the recluster maintenance
#                                      lifecycle; then the three
#                                      persistence tests that a save stages
#                                      only what changed, that a failed
#                                      save keeps its changes for the retry,
#                                      and that a save large enough for
#                                      map_ordered's helper threads keeps
#                                      the serial op order;
#                                      then the failure-injection suite: the
#                                      restore/audit agreement sweep
#                                      (restore_fails_exactly_when_the_audit_
#                                      has_an_error_for_the_version: a
#                                      restore fails exactly for the
#                                      versions the audit reports an error
#                                      for, over seeded recipe-CID rewrites
#                                      under each kind of quarantine), and
#                                      the only suite that reaches a failed
#                                      cold demotion (V1-V3 must still restore
#                                      through the chunks it left pooled,
#                                      and the next demotion must take
#                                      them) and a prune below the history
#                                      depth (the chunks only the pruned
#                                      version held leave the pool, so the
#                                      next backup archives nothing); then
#                                      the active-pool property
#                                      (the pool is the newest versions'
#                                      chunks after every backup and
#                                      reopen, and after a prune below the
#                                      history depth) and the kept-file
#                                      rule (a save stages no active file
#                                      for a container that only lost
#                                      chunks, and every reopen rebuilds
#                                      the saved pool from the kept files
#                                      and the meta's dead entries)
#   6. differential suites (release)-- the ingest front end against its
#                                      sequential reference at 1, 2 and 8
#                                      threads and on both sides of the
#                                      one-thread crossover, and whole
#                                      pipelines restoring byte-exact across
#                                      it; the restore-scheme differential
#                                      (all schemes byte-identical, reported
#                                      reads = device reads, each scheme x
#                                      capacity at its recorded reads and
#                                      hits), byte ranges
#                                      included: empty, first/last byte,
#                                      across a chunk and a container edge,
#                                      whole version, each the exact slice
#                                      of the full restore with no more
#                                      reads than it, and a reopened on-disk
#                                      repository restoring every version
#                                      with a memory-backed one's reads; the
#                                      restore crate's tests (a reused scheme
#                                      restores like a fresh one, a chunk
#                                      whose length disagrees with its plan
#                                      entry fails typed under every scheme
#                                      and writes nothing, a missing or
#                                      mis-sized chunk late in a multi-
#                                      container area fails typed after
#                                      writing only a checked prefix that
#                                      stops at or before it, and seeded
#                                      shuffled plans with repeats restore
#                                      byte-exact through the write
#                                      frontier at every area size); the storage
#                                      crate's container tests (a
#                                      decoded container keeps the file's
#                                      buffer, behaves as a built one and
#                                      rejects trailing bytes); the chunking
#                                      and hash crates' tests optimised, so
#                                      the two-lane scan-vs-bit-serial
#                                      differential covers the 64 KiB-
#                                      average, multi-MiB cases, streams
#                                      ending at a lane round's edge and
#                                      cuts lane B must win over lane A,
#                                      the multiplicative divisor test
#                                      matches `%`, the unrolled SHA-1
#                                      meets its golden digest, and the
#                                      four-lane CRC-32 meets its byte-loop
#                                      oracle around every lane and stride
#                                      edge, at release codegen too; then
#                                      the frame codec's tests, so a bit
#                                      flipped at each CRC lane edge of a
#                                      256 KiB DATA frame is caught there,
#                                      the DATA writer's frames equal
#                                      `encode_frame` of consecutive
#                                      DATA_CHUNK slices (1 byte,
#                                      DATA_CHUNK +- 1, 9 MiB), an empty
#                                      flush writes nothing, and
#                                      `read_frame_into` appends, and on a
#                                      torn, corrupt or unknown frame
#                                      leaves its buffer as it was
#   7. chaos matrix (release)       -- fault-at-every-wire-op sweep of the
#                                      retrying client against the daemon:
#                                      cut/short/black-hole/delay on both
#                                      sides, each reached site proven to
#                                      fire, resume-tail accounting (the
#                                      resumed leg moves only the tail and
#                                      a late resume reads fewer containers
#                                      than the full restore), server
#                                      restart ride-through, busy shedding;
#                                      then the daemon's disk faulted at
#                                      every I/O op of one tenant's served
#                                      backup, through the same fault plan
#   8. tenant isolation (release)   -- N tenants raced through one daemon:
#                                      byte-identical to serial runs, LRU
#                                      eviction churn, implicit default
#                                      tenant, quota/unknown-tenant refusals
#   9. served round trip            -- `hidestore serve` on an ephemeral
#                                      port: remote backup -> list ->
#                                      stats -> restore -> verify,
#                                      byte-compare, of
#                                      a 9 000 000-byte input, larger than
#                                      the 8 MiB `max_frame`, so a restore
#                                      the daemon does not cut into
#                                      DATA_CHUNK frames fails here; then
#                                      two remote restores racing a second
#                                      remote backup on the one open
#                                      repository, both byte-compared and
#                                      V2 listed; a third remote backup of
#                                      V1 with a byte prepended and 100 000
#                                      bytes cut from its middle (chunks the
#                                      daemon's pool holds are predicted,
#                                      the edits rescanned), restored
#                                      remotely and byte-compared; graceful
#                                      shutdown, then a
#                                      local `verify --json` with zero
#                                      findings of any severity; then a local
#                                      backup and restore of a 40 000 000-
#                                      byte input, larger than one 32 MiB
#                                      restore area, byte-compared, so the
#                                      write frontier crosses an area edge
#                                      into a real file; then of a copy cut
#                                      into 1 MiB blocks laid out in reverse,
#                                      byte-compared, whose new chunks at the
#                                      block edges arrive ahead of the
#                                      frontier and are pinned in their
#                                      container until it reaches them
#  10. tree round trip             -- backup-tree/restore-tree on a real
#                                      directory: excludes honoured, full and
#                                      subtree restores diff clean against
#                                      the source, the full restore reads at
#                                      most 2 containers more than a stream
#                                      `restore` of the same version (the
#                                      header and manifest passes), zero
#                                      `verify --json`
#                                      findings, and an unreadable entry
#                                      (fifo) is skipped with a non-zero
#                                      exit; then recluster, and the local
#                                      verify, a V1 restore diffed against
#                                      the first one, and zero findings all
#                                      hold again; then the bench's Figure
#                                      8-11 rows, bit-exact against their
#                                      golden values (the byte wall for the
#                                      one row builder every scheme's
#                                      backup stats feed)
#  11. paper claims (release)       -- the paper's headline shapes asserted
#                                      as tests: HiDeStore vs the Destor
#                                      baselines on restore reads, dedup
#                                      ratio, index lookups and deletion
#  12. hdsbench smoke (release)     -- the benchmark harness builds against
#                                      the workspace crates and its smoke
#                                      tests pass, so a program-API change
#                                      that breaks it fails here, not in
#                                      the perf gate
#
# Everything runs offline; the one external dependency is vendored in vendor/.
set -eu

echo "ci: cargo fmt --check"
cargo fmt --check

echo "ci: cargo xtask analyze"
cargo xtask analyze

echo "ci: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
echo "ci: cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "ci: cargo test --workspace -q"
cargo test --workspace -q

echo "ci: cargo test --release --test crash_matrix, failure_injection, proptests hot set"
cargo test --release --test crash_matrix -q
cargo test --release -p hidestore-core --lib -q -- \
    persist::tests::commit_cost_does_not_grow_with_history \
    persist::tests::failed_save_keeps_its_changes_for_the_retry \
    persist::tests::parallel_encode_keeps_the_serial_save_order
cargo test --release --test failure_injection -q
cargo test --release --test proptests -q -- the_active_pool_is_the_hot_set \
    an_active_container_that_only_lost_chunks_keeps_its_file

echo "ci: cargo test --release --test pipeline_differential"
cargo test --release --test pipeline_differential -q

echo "ci: cargo test --release --test restore_differential -p hidestore-restore"
cargo test --release --test restore_differential -q
cargo test --release -p hidestore-restore -q

echo "ci: cargo test --release -p hidestore-storage container::"
cargo test --release -p hidestore-storage --lib -q -- container::

echo "ci: cargo test --release -p hidestore-chunking -p hidestore-hash -p hidestore-proto frame::"
cargo test --release -p hidestore-chunking -q
cargo test --release -p hidestore-hash -q
cargo test --release -p hidestore-proto --lib -q -- frame::

echo "ci: cargo test --release --test server_chaos"
cargo test --release --test server_chaos -q
cargo test --release --test server_faults -q -- daemon_disk_faults_stay_typed_and_tenant_local

echo "ci: cargo test --release --test tenant_isolation"
cargo test --release --test tenant_isolation -q

echo "ci: hidestore serve remote round trip"
cargo build -q -p hidestore --bins
SERVE_DIR=$(mktemp -d)
SERVE_REPO="$SERVE_DIR/repo"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_DIR"' EXIT
./target/debug/hidestore init "$SERVE_REPO" --chunk 4096 --container 262144 > /dev/null
head -c 9000000 /dev/urandom > "$SERVE_DIR/input.bin"
# Ephemeral port: the daemon prints the bound address on stdout.
./target/debug/hidestore serve "$SERVE_REPO" --quiet > "$SERVE_DIR/serve.out" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^hds-served listening on //p' "$SERVE_DIR/serve.out")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "ci: hidestore serve never reported its address"; exit 1; }
./target/debug/hidestore backup  --remote "$ADDR" "$SERVE_DIR/input.bin"
./target/debug/hidestore list    --remote "$ADDR" --json | grep -q '"version":1'
./target/debug/hidestore stats   --remote "$ADDR" --json | grep -q '"version":1'
./target/debug/hidestore restore --remote "$ADDR" 1 "$SERVE_DIR/output.bin"
cmp "$SERVE_DIR/input.bin" "$SERVE_DIR/output.bin"
./target/debug/hidestore verify  --remote "$ADDR" | grep -q "clean"
# Readers share the daemon's one open repository with a writer: two
# restores of V1 race a backup of V2.
{ cat "$SERVE_DIR/input.bin"; head -c 1000000 /dev/urandom; } > "$SERVE_DIR/input2.bin"
./target/debug/hidestore restore --remote "$ADDR" 1 "$SERVE_DIR/race1.bin" > /dev/null &
RACE1=$!
./target/debug/hidestore restore --remote "$ADDR" 1 "$SERVE_DIR/race2.bin" > /dev/null &
RACE2=$!
./target/debug/hidestore backup  --remote "$ADDR" "$SERVE_DIR/input2.bin" > /dev/null
wait "$RACE1"
wait "$RACE2"
cmp "$SERVE_DIR/input.bin" "$SERVE_DIR/race1.bin"
cmp "$SERVE_DIR/input.bin" "$SERVE_DIR/race2.bin"
./target/debug/hidestore list    --remote "$ADDR" --json | grep -q '"version":2'
# V3 through the same running daemon: V1 with one byte prepended and
# 100 000 bytes cut from its middle. The daemon's front end emits the
# chunks its pool already holds without scanning or hashing them and
# scans across both edits; the remote restore must byte-compare.
{ printf 'x'; head -c 4450000 "$SERVE_DIR/input.bin"; tail -c +4550001 "$SERVE_DIR/input.bin"; } > "$SERVE_DIR/input3.bin"
./target/debug/hidestore backup  --remote "$ADDR" "$SERVE_DIR/input3.bin" > /dev/null
./target/debug/hidestore restore --remote "$ADDR" 3 "$SERVE_DIR/output3.bin" > /dev/null
cmp "$SERVE_DIR/input3.bin" "$SERVE_DIR/output3.bin"
./target/debug/hidestore shutdown --remote "$ADDR"
wait "$SERVE_PID"
./target/debug/hidestore verify "$SERVE_REPO" --json | grep -q '"clean": true'
# A version larger than one restore area (RESTORE_AREA_BYTES, 32 MiB),
# restored locally into a real file across the area edge.
head -c 40000000 /dev/urandom > "$SERVE_DIR/large.bin"
./target/debug/hidestore backup  "$SERVE_REPO" "$SERVE_DIR/large.bin" > /dev/null
./target/debug/hidestore restore "$SERVE_REPO" 4 "$SERVE_DIR/large.out" > /dev/null
cmp "$SERVE_DIR/large.bin" "$SERVE_DIR/large.out"
# The same bytes in 1 MiB blocks, last block first: the plan interleaves
# old containers with the new one holding the chunks cut at block edges,
# so chunks ahead of the write frontier are pinned across containers.
for block in $(seq 38 -1 0); do
  dd if="$SERVE_DIR/large.bin" bs=1048576 skip="$block" count=1 status=none
done > "$SERVE_DIR/reversed.bin"
./target/debug/hidestore backup  "$SERVE_REPO" "$SERVE_DIR/reversed.bin" > /dev/null
./target/debug/hidestore restore "$SERVE_REPO" 5 "$SERVE_DIR/reversed.out" > /dev/null
cmp "$SERVE_DIR/reversed.bin" "$SERVE_DIR/reversed.out"
trap - EXIT
rm -rf "$SERVE_DIR"

echo "ci: tree backup/restore round trip, figure_golden"
TREE_DIR=$(mktemp -d)
trap 'rm -rf "$TREE_DIR"' EXIT
./target/debug/hidestore init "$TREE_DIR/repo" --chunk 4096 --container 262144 > /dev/null
mkdir -p "$TREE_DIR/src/code/deep" "$TREE_DIR/src/logs" "$TREE_DIR/src/empty"
head -c 200000 /dev/urandom > "$TREE_DIR/src/code/main.rs"
head -c 50000  /dev/urandom > "$TREE_DIR/src/code/deep/util.rs"
printf 'hello tree\n' > "$TREE_DIR/src/readme.txt"
printf 'noise\n' > "$TREE_DIR/src/logs/build.log"
ln -s code/main.rs "$TREE_DIR/src/link"
./target/debug/hidestore backup-tree "$TREE_DIR/repo" "$TREE_DIR/src" --exclude '*.log'
# Full restore: byte-identical modulo the excluded log.
./target/debug/hidestore restore-tree "$TREE_DIR/repo" 1 "$TREE_DIR/full" > "$TREE_DIR/tree.out"
rm "$TREE_DIR/src/logs/build.log"
diff -r --no-dereference "$TREE_DIR/src" "$TREE_DIR/full"
[ ! -e "$TREE_DIR/full/logs/build.log" ]
[ -d "$TREE_DIR/full/empty" ]
# The tree restore reads each container once per area, like a stream
# restore of the same version, plus the header and manifest passes.
./target/debug/hidestore restore "$TREE_DIR/repo" 1 "$TREE_DIR/stream.bin" > "$TREE_DIR/stream.out"
TREE_READS=$(sed -n 's/.* \([0-9][0-9]*\) container reads.*/\1/p' "$TREE_DIR/tree.out")
STREAM_READS=$(sed -n 's/.* \([0-9][0-9]*\) container reads.*/\1/p' "$TREE_DIR/stream.out")
[ -n "$TREE_READS" ] && [ -n "$STREAM_READS" ] || { echo "ci: no container-read count printed"; exit 1; }
if [ "$TREE_READS" -gt $((STREAM_READS + 2)) ]; then
    echo "ci: restore-tree read $TREE_READS containers, restore $STREAM_READS"; exit 1
fi
# Subtree restore lands only the selected directory at the destination.
./target/debug/hidestore restore-tree "$TREE_DIR/repo" 1 "$TREE_DIR/sub" --subtree /code
diff -r "$TREE_DIR/src/code" "$TREE_DIR/sub"
[ ! -e "$TREE_DIR/sub/readme.txt" ]
./target/debug/hidestore verify "$TREE_DIR/repo" --json | grep -q '"clean": true'
# Resilience: an unreadable entry (fifo) is skipped, the backup still
# lands, and the exit code is non-zero.
mkfifo "$TREE_DIR/src/pipe"
if ./target/debug/hidestore backup-tree "$TREE_DIR/repo" "$TREE_DIR/src" 2> "$TREE_DIR/skip.err"; then
    echo "ci: backup-tree with a fifo should have exited non-zero"; exit 1
fi
grep -q "skipped /pipe" "$TREE_DIR/skip.err"
./target/debug/hidestore list "$TREE_DIR/repo" --json | grep -q '"version":2'
# Re-cluster the archival layout: the local verify, a V1 tree restore and
# zero findings must all still hold over the repacked containers.
./target/debug/hidestore recluster "$TREE_DIR/repo"
./target/debug/hidestore verify "$TREE_DIR/repo"
./target/debug/hidestore restore-tree "$TREE_DIR/repo" 1 "$TREE_DIR/reclustered"
diff -r --no-dereference "$TREE_DIR/full" "$TREE_DIR/reclustered"
./target/debug/hidestore verify "$TREE_DIR/repo" --json | grep -q '"clean": true'
trap - EXIT
rm -rf "$TREE_DIR"
cargo test --release -p hidestore-bench --test figure_golden -q

echo "ci: cargo test --release --test paper_claims"
cargo test --release --test paper_claims -q

echo "ci: cargo test --release --manifest-path hdsbench/Cargo.toml"
cargo test --release --offline --manifest-path hdsbench/Cargo.toml -q

echo "ci: all checks passed"
