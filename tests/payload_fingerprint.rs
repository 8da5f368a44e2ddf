//! Frozen dump-payload fingerprints.
//!
//! FNV-1a-64 of `msr_sched::program::payload(session, dataset, iter, len)`
//! over a fixed grid, the same pattern as `tests/sched_fingerprint.rs`.
//! Every scheduler drain writes these bytes, the chunk plane's dedup and
//! compression ratios are functions of them, and `benchmark/` regenerates
//! them to verify read-backs, so a changed constant means every stored-
//! bytes and WAN-bytes ledger moved. The lengths straddle every power of
//! two a block-wise generator could stumble on; the two explicit cells are
//! the iterations whose churn window wraps past the end of the payload.

use msr::sched::program::payload;

const SESSIONS: [u64; 2] = [0, 7];
const DATASETS: [&str; 2] = ["chk", "field"];
const ITERS: [u32; 6] = [0, 1, 3, 48, 96, u32::MAX];

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(h: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(h, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// One hash per length: every `(session, dataset, iter)` cell's bytes
/// folded in grid order, each cell closed with its length so a byte moving
/// between neighbouring cells still shows.
fn grid_fingerprint(len: usize) -> String {
    let mut h = FNV_OFFSET;
    for session in SESSIONS {
        for dataset in DATASETS {
            for iter in ITERS {
                let data = payload(session, dataset, iter, len);
                assert_eq!(data.len(), len);
                h = fnv(h, &data);
                h = fnv(h, &(len as u64).to_le_bytes());
            }
        }
    }
    format!("{h:016x}")
}

#[test]
fn payload_grid_fingerprint_is_frozen() {
    for (len, pin) in [
        (0, "ab0c262759a1d225"),
        (1, "899872b27a4f59f3"),
        (7, "223a71b406315c2a"),
        (8, "40ba4aabeb060792"),
        (9, "1ea2de8bf6bf37b4"),
        (15, "f63c248b2df3a17f"),
        (16, "00c8a07bd658fd1c"),
        (17, "6461aa4586b42750"),
        (63, "c2cacfc7df8ce579"),
        (64, "2720004a9c05bba6"),
        (65, "8e846335464fb2e9"),
        (2_048, "dd5155cb80f890b6"),
        (4_099, "f8f63ce80c62e4e0"),
        (131_072, "7da527f00fe958d6"),
        (1_048_576 + 5, "a7b7bee7b42ceac3"),
    ] {
        assert_eq!(
            grid_fingerprint(len),
            pin,
            "payload bytes moved at len={len}"
        );
    }
}

/// `at + window > len`: the churn window's tail lands at the front of the
/// payload.
#[test]
fn wrapping_churn_window_fingerprint_is_frozen() {
    for (len, iter, pin) in [
        (2_048usize, 143u32, "3211d22ee2484d90"),
        (1 << 20, 125, "71c98c2ebab15ae3"),
    ] {
        let at = iter as usize * 7919 % len;
        assert!(at + len / 16 > len, "cell len={len} iter={iter} must wrap");
        let data = payload(7, "chk", iter, len);
        let h = fnv(FNV_OFFSET, &data);
        assert_eq!(
            format!("{h:016x}"),
            pin,
            "wrapped payload bytes moved at len={len} iter={iter}"
        );
        // The wrapped tail really is churn: it differs from the base
        // stream a window-free iteration leaves at the front.
        let wrapped = at + len / 16 - len;
        let other = payload(7, "chk", iter + 1, len);
        assert_ne!(data[..wrapped], other[..wrapped]);
    }
}
