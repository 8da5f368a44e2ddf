//! Contract tests: every device kind, bare and with its fault and observe
//! stages on, must satisfy the same behavioural battery — the guarantees
//! the run-time layer and the API layer build on.

use msr_net::{LinkSpec, Network};
use msr_obs::Registry;
use msr_sim::{Clock, SimDuration};
use msr_storage::{
    share, CostModel, Device, DiskParams, FaultPlan, LocalDisk, OpKind, OpenMode, Payload,
    RateCurve, RemoteDisk, SharedResource, StorageError, TapeResource,
};

fn local() -> LocalDisk {
    LocalDisk::new("c-local", DiskParams::simple(20.0, 1 << 30), 1)
}

fn net() -> msr_net::SharedNetwork {
    msr_net::share(Network::new(
        "A",
        "B",
        LinkSpec::ideal(SimDuration::from_millis(10.0), 1.0),
    ))
}

fn remote() -> RemoteDisk {
    RemoteDisk::new(
        "c-remote",
        net(),
        msr_storage::srb_protocol(),
        msr_storage::remote_disk::RemoteFixed {
            open: SimDuration::from_secs(0.4),
            seek: SimDuration::from_secs(0.4),
            close_read: SimDuration::from_secs(0.6),
            close_write: SimDuration::from_secs(0.8),
        },
        RateCurve::constant_bandwidth(5.0),
        RateCurve::constant_bandwidth(5.0),
        1 << 30,
        1,
    )
}

fn tape() -> TapeResource {
    TapeResource::new(
        "c-tape",
        net(),
        msr_storage::hpss_protocol(),
        msr_storage::hpss_params(),
        2,
    )
}

/// `device` with both stages switched on — live recorder and a fault
/// plan that injects nothing — so every stage's bookkeeping runs under the
/// battery without changing what the contract promises.
fn staged<M: CostModel + 'static>(device: Device<M>) -> Device<M> {
    let clock = Clock::new();
    let mut device = device.observed(Registry::new().recorder(), clock.clone());
    device.inject_faults(FaultPlan::none(), clock, 7);
    device
}

fn all_resources() -> Vec<SharedResource> {
    vec![
        share(local()),
        share(remote()),
        share(tape()),
        share(staged(local())),
        share(staged(remote())),
        share(staged(tape())),
    ]
}

fn with_each(f: impl Fn(&mut Device<dyn CostModel>)) {
    for res in all_resources() {
        let mut r = res.lock();
        r.connect().expect("connect");
        f(&mut *r);
    }
}

#[test]
fn write_read_roundtrip_bytes_exact() {
    with_each(|r| {
        let payload: Vec<u8> = (0..50_000u32).map(|i| (i % 251) as u8).collect();
        let h = r.open("contract/rt", OpenMode::Create).unwrap().value;
        r.write(h, &payload).unwrap();
        r.close(h).unwrap();
        let h = r.open("contract/rt", OpenMode::Read).unwrap().value;
        let got = r.read(h, payload.len()).unwrap().value;
        r.close(h).unwrap();
        assert_eq!(&got[..], &payload[..], "{}", r.name());
    });
}

#[test]
fn a_recipe_file_reads_back_its_bytes_and_its_recipe() {
    with_each(|r| {
        let dump = Payload::dump(7, "chk", 3, 50_000);
        let bytes = dump.clone().into_bytes();
        let h = r.open("contract/recipe", OpenMode::Create).unwrap().value;
        assert_eq!(r.write_shared(h, dump).unwrap().value, 50_000);
        r.close(h).unwrap();
        assert_eq!(r.file_size("contract/recipe"), Some(50_000), "{}", r.name());
        let h = r.open("contract/recipe", OpenMode::Read).unwrap().value;
        let whole = r.read_shared(h, 60_000).unwrap().value;
        assert!(matches!(whole, Payload::Recipe(_)), "{}", r.name());
        r.seek(h, 0).unwrap();
        assert_eq!(r.read(h, 50_000).unwrap().value, bytes, "{}", r.name());
        r.seek(h, 123).unwrap();
        let part = r.read_shared(h, 1_000).unwrap().value;
        assert_eq!(part.into_bytes(), bytes[123..1_123], "{}", r.name());
        r.close(h).unwrap();
    });
}

#[test]
fn partial_reads_with_seek() {
    with_each(|r| {
        let h = r.open("contract/seek", OpenMode::Create).unwrap().value;
        r.write(h, b"0123456789").unwrap();
        r.close(h).unwrap();
        let h = r.open("contract/seek", OpenMode::Read).unwrap().value;
        r.seek(h, 4).unwrap();
        assert_eq!(&r.read(h, 3).unwrap().value[..], b"456", "{}", r.name());
        // Cursor advanced past the read.
        assert_eq!(&r.read(h, 2).unwrap().value[..], b"78", "{}", r.name());
        r.close(h).unwrap();
    });
}

#[test]
fn every_operation_costs_nonnegative_time_and_data_ops_cost_positive() {
    with_each(|r| {
        let h = r.open("contract/cost", OpenMode::Create).unwrap();
        let w = r.write(h.value, &[1u8; 100_000]).unwrap();
        assert!(
            w.time > SimDuration::ZERO,
            "{} write must cost time",
            r.name()
        );
        let c = r.close(h.value).unwrap();
        assert!(c.time >= SimDuration::ZERO);
        let h = r.open("contract/cost", OpenMode::Read).unwrap();
        let rd = r.read(h.value, 100_000).unwrap();
        assert!(
            rd.time > SimDuration::ZERO,
            "{} read must cost time",
            r.name()
        );
        r.close(h.value).unwrap();
    });
}

#[test]
fn read_mode_and_write_mode_are_exclusive() {
    with_each(|r| {
        let h = r.open("contract/mode", OpenMode::Create).unwrap().value;
        assert!(
            matches!(r.read(h, 1), Err(StorageError::BadMode { .. })),
            "{}",
            r.name()
        );
        r.write(h, b"x").unwrap();
        r.close(h).unwrap();
        let h = r.open("contract/mode", OpenMode::Read).unwrap().value;
        assert!(
            matches!(r.write(h, b"y"), Err(StorageError::BadMode { .. })),
            "{}",
            r.name()
        );
        r.close(h).unwrap();
    });
}

#[test]
fn missing_file_read_is_not_found() {
    with_each(|r| {
        assert!(
            matches!(
                r.open("contract/ghost", OpenMode::Read),
                Err(StorageError::NotFound(_))
            ),
            "{}",
            r.name()
        );
    });
}

#[test]
fn closed_handles_go_stale() {
    with_each(|r| {
        let h = r.open("contract/stale", OpenMode::Create).unwrap().value;
        r.close(h).unwrap();
        assert!(
            matches!(r.write(h, b"x"), Err(StorageError::BadHandle)),
            "{}",
            r.name()
        );
    });
}

#[test]
fn offline_resources_reject_io_then_recover() {
    with_each(|r| {
        r.set_online(false);
        assert!(
            matches!(
                r.open("contract/off", OpenMode::Create),
                Err(StorageError::Offline { .. })
            ),
            "{}",
            r.name()
        );
        r.set_online(true);
        assert!(r.connect().is_ok());
        assert!(
            r.open("contract/off", OpenMode::Create).is_ok(),
            "{}",
            r.name()
        );
    });
}

#[test]
fn usage_accounting_tracks_writes_and_deletes() {
    with_each(|r| {
        let before = r.used_bytes();
        let h = r.open("contract/acct", OpenMode::Create).unwrap().value;
        r.write(h, &[0u8; 12_345]).unwrap();
        r.close(h).unwrap();
        assert_eq!(r.used_bytes() - before, 12_345, "{}", r.name());
        assert_eq!(r.file_size("contract/acct"), Some(12_345));
        r.delete("contract/acct").unwrap();
        assert_eq!(r.used_bytes(), before, "{}", r.name());
        assert!(!r.exists("contract/acct"));
    });
}

#[test]
fn list_is_prefix_scoped_and_sorted() {
    with_each(|r| {
        for p in ["contract/ls/b", "contract/ls/a", "other/x"] {
            let h = r.open(p, OpenMode::Create).unwrap().value;
            r.write(h, b"1").unwrap();
            r.close(h).unwrap();
        }
        let ls = r.list("contract/ls/");
        assert_eq!(
            ls,
            vec!["contract/ls/a".to_owned(), "contract/ls/b".to_owned()],
            "{}",
            r.name()
        );
    });
}

#[test]
fn stats_count_operations() {
    with_each(|r| {
        r.reset_stats();
        let h = r.open("contract/stats", OpenMode::Create).unwrap().value;
        r.write(h, b"abc").unwrap();
        r.write(h, b"def").unwrap();
        r.close(h).unwrap();
        let s = r.stats();
        assert_eq!((s.opens, s.writes, s.closes), (1, 2, 1), "{}", r.name());
        assert_eq!(s.bytes_written, 6);
    });
}

#[test]
fn append_mode_continues_at_the_end() {
    with_each(|r| {
        let h = r.open("contract/app", OpenMode::Create).unwrap().value;
        r.write(h, b"aaa").unwrap();
        r.close(h).unwrap();
        let h = r.open("contract/app", OpenMode::Append).unwrap().value;
        r.write(h, b"bbb").unwrap();
        r.close(h).unwrap();
        assert_eq!(r.file_size("contract/app"), Some(6), "{}", r.name());
        let h = r.open("contract/app", OpenMode::Read).unwrap().value;
        assert_eq!(&r.read(h, 6).unwrap().value[..], b"aaabbb");
        r.close(h).unwrap();
    });
}

#[test]
fn transfer_model_is_monotone_in_size() {
    with_each(|r| {
        let mut last = SimDuration::ZERO;
        for exp in 10..24 {
            let t = r.transfer_model(msr_storage::OpKind::Write, 1 << exp, 1);
            assert!(t >= last, "{} non-monotone at 2^{exp}", r.name());
            last = t;
        }
    });
}

#[test]
fn stream_hint_never_speeds_up_io() {
    with_each(|r| {
        let h = r.open("contract/hint", OpenMode::Create).unwrap().value;
        r.write(h, &[0u8; 200_000]).unwrap();
        r.close(h).unwrap();
        // Average a few samples to smooth device jitter.
        let avg = |r: &mut Device<dyn CostModel>| {
            let h = r.open("contract/hint", OpenMode::Read).unwrap().value;
            let mut total = SimDuration::ZERO;
            for _ in 0..5 {
                r.seek(h, 0).unwrap();
                total += r.read(h, 200_000).unwrap().time;
            }
            r.close(h).unwrap();
            total / 5.0
        };
        r.set_stream_hint(1);
        let alone = avg(r);
        r.set_stream_hint(8);
        let contended = avg(r);
        r.set_stream_hint(1);
        assert!(
            contended.as_secs() >= alone.as_secs() * 0.95,
            "{}: contended {contended} vs alone {alone}",
            r.name()
        );
    });
}

/// The stages leave every info answer untouched — here a tape device with
/// a vaulted file, a logical-size override, a stream hint and the device
/// offline, so every answer differs from a resource left as built.
#[test]
fn front_is_transparent_for_every_info_method() {
    fn shelved() -> TapeResource {
        let mut t = tape();
        t.connect().unwrap();
        for (path, len) in [("t/a", 600_000), ("t/b", 700_000), ("u/c", 10)] {
            let h = t.open(path, OpenMode::Create).unwrap().value;
            t.write(h, &vec![3u8; len]).unwrap();
            t.close(h).unwrap();
        }
        t.vault("t/b").unwrap();
        t.set_logical_size("t/a", 42);
        t.set_stream_hint(3);
        t.set_online(false);
        t
    }
    fn info(r: &Device<dyn CostModel>) -> String {
        let mut out = format!(
            "{} {:?} online={} cap={} used={} logical={} avail={} hint={} {:?} {:?} {:?}",
            r.name(),
            r.kind(),
            r.is_online(),
            r.capacity_bytes(),
            r.used_bytes(),
            r.logical_bytes(),
            r.available_bytes(),
            r.stream_hint(),
            r.stats(),
            r.list(""),
            r.list("t/"),
        );
        for p in ["t/a", "t/b", "u/c", "ghost"] {
            out += &format!(" {}:{:?}:{}", r.exists(p), r.file_size(p), r.is_vaulted(p));
        }
        for op in [OpKind::Read, OpKind::Write] {
            let (fixed, model) = (r.fixed_costs(op), r.transfer_model(op, 1 << 20, 4));
            out += &format!(" {fixed:?} {model:?}");
        }
        out
    }
    let bare = shelved();
    assert!(
        !bare.is_online()
            && bare.is_vaulted("t/b")
            && bare.stream_hint() == 3
            && bare.logical_bytes() != bare.used_bytes(),
        "the case must tell every answer from an untouched device's"
    );
    assert_eq!(info(&staged(shelved())), info(&bare));
}

/// The tape's volume ([`msr_storage::volume_of`]) is the unit of vault and
/// recall, bare and behind its stages: a vault shelves every file on the
/// volume and no file off it, a shelved volume refuses every open, a delete
/// leaves it shelved, and one recall brings all of it back.
#[test]
fn a_tape_volume_is_vaulted_and_recalled_whole() {
    for res in [share(tape()), share(staged(tape()))] {
        let mut r = res.lock();
        r.connect().unwrap();
        for path in ["run/a", "run/b", "run/c", "other/d"] {
            let h = r.open(path, OpenMode::Create).unwrap().value;
            r.write(h, path.as_bytes()).unwrap();
            r.close(h).unwrap();
        }
        assert_eq!(msr_storage::volume_of("run/a"), "run");
        r.vault("run/a").unwrap();
        assert!(r.is_vaulted("run/b") && !r.is_vaulted("other/d"));
        for (path, mode) in [("run/b", OpenMode::Read), ("run/new", OpenMode::Create)] {
            assert!(
                matches!(r.open(path, mode), Err(StorageError::Vaulted(_))),
                "{path}"
            );
        }
        let h = r.open("other/d", OpenMode::Read).unwrap().value;
        assert_eq!(&r.read(h, 7).unwrap().value[..], b"other/d");
        r.close(h).unwrap();

        r.delete("run/c").unwrap();
        assert!(r.is_vaulted("run/a"), "a delete leaves the volume shelved");

        let recall = r.recall("run/b").unwrap().time;
        assert_eq!(recall, msr_storage::hpss_params().recall);
        assert_eq!(r.recall("run/a").unwrap().time, SimDuration::ZERO);
        for path in ["run/a", "run/b"] {
            let h = r.open(path, OpenMode::Read).unwrap().value;
            assert_eq!(&r.read(h, 5).unwrap().value[..], path.as_bytes());
            r.close(h).unwrap();
        }
    }
}
