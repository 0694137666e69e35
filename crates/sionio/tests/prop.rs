//! Property-based tests of the parallel file system and SION container.

use proptest::prelude::*;
use sionio::{ParallelFs, SionContainer, SionError};

proptest! {
    #[test]
    fn pfs_write_read_roundtrip(data in prop::collection::vec(any::<u8>(), 0..8192)) {
        let fs = ParallelFs::deep_er();
        fs.write("/f", &data);
        let (back, _) = fs.read_at("/f", 0, data.len() as u64).unwrap();
        prop_assert_eq!(back, data);
        prop_assert!(fs.read_at("/f", 0, data.len() as u64 + 1).is_err());
    }

    #[test]
    fn pfs_ranged_reads_match_full(data in prop::collection::vec(any::<u8>(), 1..4096), a in 0usize..4096, b in 0usize..4096) {
        let fs = ParallelFs::deep_er();
        fs.write("/f", &data);
        let (lo, hi) = (a.min(b) % data.len(), (a.max(b) % data.len()).max(a.min(b) % data.len()));
        let len = hi - lo;
        let (part, _) = fs.read_at("/f", lo as u64, len as u64).unwrap();
        prop_assert_eq!(&part[..], &data[lo..hi]);
    }

    #[test]
    fn pfs_write_at_grows_consistently(off in 0u64..10_000, data in prop::collection::vec(any::<u8>(), 1..512)) {
        let fs = ParallelFs::deep_er();
        fs.write_at("/g", off, &data);
        let size = off + data.len() as u64;
        prop_assert!(fs.read_at("/g", 0, size).is_ok());
        prop_assert!(fs.read_at("/g", 0, size + 1).is_err());
        let (back, _) = fs.read_at("/g", off, data.len() as u64).unwrap();
        prop_assert_eq!(back, data);
    }

    #[test]
    fn pfs_transfer_time_monotone(a in 0u64..(1 << 26), b in 0u64..(1 << 26)) {
        let fs = ParallelFs::deep_er();
        let (lo, hi) = (a.min(b), a.max(b));
        prop_assert!(fs.transfer_time(lo) <= fs.transfer_time(hi));
    }

    #[test]
    fn sion_chunks_are_isolated(
        tasks in 2usize..8,
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..2000), 8),
    ) {
        let fs = ParallelFs::deep_er();
        let (c, _) = SionContainer::create(&fs, "/p.sion", tasks, 2000).unwrap();
        for (t, payload) in payloads.iter().enumerate().take(tasks) {
            c.write_task(t, payload).unwrap();
        }
        // Overwrite task 0; others unaffected.
        c.write_task(0, b"overwritten").unwrap();
        for (t, payload) in payloads.iter().enumerate().take(tasks).skip(1) {
            let (back, _) = c.read_task(t).unwrap();
            prop_assert_eq!(&back, payload);
        }
        let (z, _) = c.read_task(0).unwrap();
        prop_assert_eq!(&z[..], b"overwritten");
    }

    #[test]
    fn sion_reopen_preserves_data(tasks in 1usize..6, chunk in 1u64..5000, tag in any::<u8>()) {
        let fs = ParallelFs::deep_er();
        let (c, _) = SionContainer::create(&fs, "/r.sion", tasks, chunk).unwrap();
        let payload = vec![tag; (chunk as usize).min(100)];
        c.write_task(tasks - 1, &payload).unwrap();
        let (c2, _) = SionContainer::open(&fs, "/r.sion").unwrap();
        let past = c2.read_task(tasks);
        prop_assert!(matches!(past, Err(SionError::BadTask { tasks: t, .. }) if t == tasks));
        let (back, _) = c2.read_task(tasks - 1).unwrap();
        prop_assert_eq!(back, payload);
    }
}
