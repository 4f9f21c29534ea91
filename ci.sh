#!/usr/bin/env sh
# Repository CI gate. Run from the workspace root:
#
#     ./ci.sh
#
# Thirteen checks, in order of increasing cost; the script stops at the first
# failure:
#
#   1. cargo fmt --check            -- formatting drift
#   2. cargo xtask lint             -- panic-free library code + crate attrs
#   3. cargo xtask analyze          -- static-analysis wall: Vfs I/O
#                                      discipline, lock discipline, wire
#                                      safety, panic markers, raw-socket use
#   4. clippy + rustdoc -D warnings -- clippy across every target, then
#                                      the workspace docs, so a deletion
#                                      cannot leave a dangling doc link
#   5. cargo test -q                -- the full workspace test suite
#   6. crash matrix (release)       -- crash-at-every-I/O-site recovery sweep
#                                      of the backup/save/delete lifecycle
#                                      and of the reverse-dedup and recluster
#                                      maintenance lifecycles; then the two
#                                      persistence tests that a save stages
#                                      only what changed and that a failed
#                                      save keeps its changes for the retry
#   7. differential suites (release)-- the ingest front end against its
#                                      inline reference on both sides of the
#                                      inline/staged crossover, and whole
#                                      pipelines restoring byte-exact across
#                                      it; the restore-scheme differential
#                                      (all schemes byte-identical, reported
#                                      reads = device reads); the chunking
#                                      and hash crates' tests optimised, so
#                                      the scan-vs-bit-serial differential
#                                      covers the 64 KiB-average, multi-MiB
#                                      cases, and the unrolled SHA-1 and
#                                      slicing CRC-32 meet their golden
#                                      digest and byte-loop oracle, at
#                                      release codegen too
#   8. chaos matrix (release)       -- fault-at-every-wire-op sweep of the
#                                      retrying client against the daemon:
#                                      cut/short/black-hole/delay on both
#                                      sides, resume-tail accounting, server
#                                      restart ride-through, busy shedding
#   9. tenant isolation (release)   -- N tenants raced through one daemon:
#                                      byte-identical to serial runs, LRU
#                                      eviction churn, implicit default
#                                      tenant, quota/unknown-tenant refusals
#  10. served round trip            -- hds-served on an ephemeral port:
#                                      remote backup -> list -> restore ->
#                                      verify, byte-compare; then two
#                                      remote restores racing a second
#                                      remote backup on the one open
#                                      repository, both byte-compared and
#                                      V2 listed; fsck-clean repo, graceful
#                                      shutdown
#  11. tree round trip             -- backup-tree/restore-tree on a real
#                                      directory: excludes honoured, full and
#                                      subtree restores diff clean against
#                                      the source, fsck-clean repo, and an
#                                      unreadable entry (fifo) is skipped
#                                      with a non-zero exit; then recluster,
#                                      and the local verify, a V1 restore
#                                      diffed against the first one, and
#                                      fsck all pass again
#  12. paper claims (release)       -- the cross-scheme comparison asserted
#                                      as tests: HiDeStore vs RevDedup vs
#                                      hybrid vs DDFS restore reads, dedup
#                                      ratios, and deferred-pass accounting
#  13. hdsbench smoke (release)     -- the benchmark harness builds against
#                                      the workspace crates and its smoke
#                                      tests pass, so a program-API change
#                                      that breaks it fails here, not in
#                                      the perf gate
#
# Everything runs offline; the one external dependency is vendored in vendor/.
set -eu

echo "ci: cargo fmt --check"
cargo fmt --check

echo "ci: cargo xtask lint"
cargo xtask lint

echo "ci: cargo xtask analyze"
cargo xtask analyze

echo "ci: cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings
echo "ci: cargo doc --workspace --no-deps (RUSTDOCFLAGS=-D warnings)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline

echo "ci: cargo test --workspace -q"
cargo test --workspace -q

echo "ci: cargo test --release --test crash_matrix"
cargo test --release --test crash_matrix -q
cargo test --release -p hidestore-core --lib -q -- \
    persist::tests::commit_cost_does_not_grow_with_history \
    persist::tests::failed_save_keeps_its_changes_for_the_retry

echo "ci: cargo test --release --test pipeline_differential"
cargo test --release --test pipeline_differential -q

echo "ci: cargo test --release --test restore_differential"
cargo test --release --test restore_differential -q

echo "ci: cargo test --release -p hidestore-chunking -p hidestore-hash"
cargo test --release -p hidestore-chunking -q
cargo test --release -p hidestore-hash -q

echo "ci: cargo test --release --test server_chaos"
cargo test --release --test server_chaos -q

echo "ci: cargo test --release --test tenant_isolation"
cargo test --release --test tenant_isolation -q

echo "ci: hds-served remote round trip"
cargo build -q -p hidestore -p hidestore-server -p hidestore-fsck --bins
SERVE_DIR=$(mktemp -d)
SERVE_REPO="$SERVE_DIR/repo"
trap 'kill "$SERVE_PID" 2>/dev/null || true; rm -rf "$SERVE_DIR"' EXIT
./target/debug/hidestore init "$SERVE_REPO" --chunk 4096 --container 262144 > /dev/null
head -c 3000000 /dev/urandom > "$SERVE_DIR/input.bin"
# Ephemeral port: the daemon prints the bound address on stdout.
./target/debug/hds-served "$SERVE_REPO" --quiet > "$SERVE_DIR/serve.out" 2>&1 &
SERVE_PID=$!
ADDR=""
for _ in $(seq 1 50); do
    ADDR=$(sed -n 's/^hds-served listening on //p' "$SERVE_DIR/serve.out")
    [ -n "$ADDR" ] && break
    sleep 0.1
done
[ -n "$ADDR" ] || { echo "ci: hds-served never reported its address"; exit 1; }
./target/debug/hidestore backup  --remote "$ADDR" "$SERVE_DIR/input.bin"
./target/debug/hidestore list    --remote "$ADDR" --json | grep -q '"version":1'
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
./target/debug/hidestore shutdown --remote "$ADDR"
wait "$SERVE_PID"
./target/debug/hds-fsck "$SERVE_REPO"
trap - EXIT
rm -rf "$SERVE_DIR"

echo "ci: tree backup/restore round trip"
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
./target/debug/hidestore restore-tree "$TREE_DIR/repo" 1 "$TREE_DIR/full"
rm "$TREE_DIR/src/logs/build.log"
diff -r --no-dereference "$TREE_DIR/src" "$TREE_DIR/full"
[ ! -e "$TREE_DIR/full/logs/build.log" ]
[ -d "$TREE_DIR/full/empty" ]
# Subtree restore lands only the selected directory at the destination.
./target/debug/hidestore restore-tree "$TREE_DIR/repo" 1 "$TREE_DIR/sub" --subtree /code
diff -r "$TREE_DIR/src/code" "$TREE_DIR/sub"
[ ! -e "$TREE_DIR/sub/readme.txt" ]
./target/debug/hds-fsck "$TREE_DIR/repo"
# Resilience: an unreadable entry (fifo) is skipped, the backup still
# lands, and the exit code is non-zero.
mkfifo "$TREE_DIR/src/pipe"
if ./target/debug/hidestore backup-tree "$TREE_DIR/repo" "$TREE_DIR/src" 2> "$TREE_DIR/skip.err"; then
    echo "ci: backup-tree with a fifo should have exited non-zero"; exit 1
fi
grep -q "skipped /pipe" "$TREE_DIR/skip.err"
./target/debug/hidestore list "$TREE_DIR/repo" --json | grep -q '"version":2'
# Re-cluster the archival layout: the local scrub, a V1 tree restore and
# fsck must all still pass over the repacked containers.
./target/debug/hidestore recluster "$TREE_DIR/repo"
./target/debug/hidestore verify "$TREE_DIR/repo"
./target/debug/hidestore restore-tree "$TREE_DIR/repo" 1 "$TREE_DIR/reclustered"
diff -r --no-dereference "$TREE_DIR/full" "$TREE_DIR/reclustered"
./target/debug/hds-fsck "$TREE_DIR/repo"
trap - EXIT
rm -rf "$TREE_DIR"

echo "ci: cargo test --release --test paper_claims"
cargo test --release --test paper_claims -q

echo "ci: cargo test --release --manifest-path hdsbench/Cargo.toml"
cargo test --release --offline --manifest-path hdsbench/Cargo.toml -q

echo "ci: all checks passed"
