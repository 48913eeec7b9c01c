//! Property test of the serving workspace pool: across arbitrary concurrent
//! checkout/return schedules, no two in-flight leases ever hold the same
//! workspace (no aliasing), keys never mix, and the pool never allocates
//! more workspaces than its peak concurrency per key.

use gofmm_runtime::WorkspacePool;
use proptest::prelude::*;
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A workspace with a unique identity and the key it was allocated for.
/// The `stamp` field is scribbled on while leased to catch aliasing through
/// data, not just through identity.
struct Ws {
    id: usize,
    key: usize,
    stamp: usize,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Lease/return under concurrency never aliases and never crosses keys.
    #[test]
    fn concurrent_leases_never_alias_and_keys_never_mix(
        threads in 1usize..6,
        iters in 1usize..40,
        key_count in 1usize..4,
        seed in 0u64..1_000,
    ) {
        let pool: WorkspacePool<Ws> = WorkspacePool::new();
        let next_id = AtomicUsize::new(0);
        let in_flight: Mutex<HashSet<usize>> = Mutex::new(HashSet::new());
        let next_stamp = AtomicUsize::new(1);

        std::thread::scope(|scope| {
            for t in 0..threads {
                let pool = &pool;
                let next_id = &next_id;
                let in_flight = &in_flight;
                let next_stamp = &next_stamp;
                scope.spawn(move || {
                    // Deterministic per-thread key schedule derived from the
                    // proptest seed.
                    let mut state = seed ^ (t as u64).wrapping_mul(0x9E3779B97F4A7C15);
                    for _ in 0..iters {
                        state = state
                            .wrapping_mul(6364136223846793005)
                            .wrapping_add(1442695040888963407);
                        let key = (state >> 33) as usize % key_count;
                        let mut lease = pool.lease(key, || Ws {
                            id: next_id.fetch_add(1, Ordering::Relaxed),
                            key,
                            stamp: 0,
                        });
                        // Identity: this workspace must not be leased anywhere
                        // else right now.
                        assert!(
                            in_flight.lock().unwrap().insert(lease.id),
                            "workspace {} aliased across concurrent leases",
                            lease.id
                        );
                        // Keys never mix: a key-k shelf only returns key-k
                        // workspaces.
                        assert_eq!(lease.key, key, "workspace crossed shelves");
                        // Data: scribble a unique stamp, yield, and verify no
                        // other lease overwrote it.
                        let stamp = next_stamp.fetch_add(1, Ordering::Relaxed);
                        lease.stamp = stamp;
                        std::thread::yield_now();
                        assert_eq!(lease.stamp, stamp, "workspace data raced");
                        // Leave the in-flight set before the workspace goes
                        // back on the shelf: another thread may lease it the
                        // moment it is returned.
                        assert!(in_flight.lock().unwrap().remove(&lease.id));
                        drop(lease); // returns to the shelf
                    }
                });
            }
        });

        // Peak concurrency bounds the allocations: at most one workspace per
        // (thread, key) pair can ever have been live at once.
        prop_assert!(pool.created() <= threads * key_count,
            "created {} > threads*keys {}", pool.created(), threads * key_count);
        prop_assert_eq!(pool.created() + pool.recycled(), threads * iters);
    }
}
