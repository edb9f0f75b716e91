//! Integration tests for dl-obs: histogram bucket boundaries,
//! concurrent histogram recording, and a golden-file assertion that
//! the manifest structure is stable once timings are zeroed.

use dl_obs::metrics::{Histogram, HISTOGRAM_BUCKETS};
use dl_obs::span::Spans;
use dl_obs::{Json, Manifest};

#[test]
fn histogram_bucket_boundaries() {
    // Bucket 0 holds exactly zero; bucket k holds [2^(k-1), 2^k).
    assert_eq!(Histogram::bucket_of(0), 0);
    assert_eq!(Histogram::bucket_of(1), 1);
    assert_eq!(Histogram::bucket_of(2), 2);
    assert_eq!(Histogram::bucket_of(3), 2);
    assert_eq!(Histogram::bucket_of(4), 3);
    assert_eq!(Histogram::bucket_of(7), 3);
    assert_eq!(Histogram::bucket_of(8), 4);
    assert_eq!(Histogram::bucket_of(1023), 10);
    assert_eq!(Histogram::bucket_of(1024), 11);
    assert_eq!(Histogram::bucket_of(u64::MAX), 64);

    // Bounds agree with bucket_of at every edge.
    for i in 0..HISTOGRAM_BUCKETS {
        let (low, high) = Histogram::bucket_bounds(i);
        assert_eq!(Histogram::bucket_of(low), i, "low edge of bucket {i}");
        if let Some(high) = high {
            assert_eq!(
                Histogram::bucket_of(high - 1),
                i,
                "inclusive top of bucket {i}"
            );
            if high < u64::MAX {
                assert_eq!(Histogram::bucket_of(high), i + 1, "exclusive top {i}");
            }
        }
    }

    let h = Histogram::default();
    for v in [0, 1, 1, 3, 8, 9] {
        h.record(v);
    }
    assert_eq!(h.bucket(0), 1);
    assert_eq!(h.bucket(1), 2);
    assert_eq!(h.bucket(2), 1);
    assert_eq!(h.bucket(4), 2);
    assert_eq!(h.count(), 6);
    assert_eq!(h.sum(), 22);
    assert_eq!(h.nonzero_buckets(), vec![(0, 1), (1, 2), (2, 1), (4, 2)]);
}

#[test]
fn concurrent_histogram_records_are_lossless() {
    const THREADS: usize = 8;
    const PER_THREAD: u64 = 10_000;
    let h = Histogram::default();
    std::thread::scope(|scope| {
        for _ in 0..THREADS {
            let h = &h;
            scope.spawn(move || {
                for i in 0..PER_THREAD {
                    h.record(i % 16);
                }
            });
        }
    });
    let n = THREADS as u64 * PER_THREAD;
    assert_eq!(h.count(), n);
    // Each thread records 0..16 in 625 full rounds.
    assert_eq!(h.sum(), n / 16 * (0..16).sum::<u64>());
}

/// The golden manifest: structure (keys, ordering, deterministic
/// values) must be byte-stable once timings are zeroed. If this test
/// fails because the schema deliberately changed, update the expected
/// string *and* the schema consumers (`ci.sh`, DESIGN.md).
#[test]
fn golden_manifest_structure_with_timings_zeroed() {
    let spans = Spans::default();
    spans.record("repro/warm", 1.234_567_9);
    spans.record("repro/tables/table3", 0.5);

    let mut manifest = Manifest::new("repro")
        .with_stages(&spans)
        .with(
            "memo",
            Json::obj()
                .with("hits", 7u64.into())
                .with("misses", 3u64.into())
                .with("hit_rate", Json::F64(0.7)),
        )
        .with(
            "sim",
            Json::obj()
                .with("instructions", 1000u64.into())
                .with("total_sim_secs", Json::F64(0.25))
                .with("insts_per_sec", Json::F64(4000.0)),
        );
    manifest.zero_timings();

    let expected = r#"{
  "schema": "dl-obs/1",
  "command": "repro",
  "stages": [
    {
      "name": "repro/tables/table3",
      "secs": 0.000000,
      "start_secs": 0.000000
    },
    {
      "name": "repro/warm",
      "secs": 0.000000,
      "start_secs": 0.000000
    }
  ],
  "memo": {
    "hits": 7,
    "misses": 3,
    "hit_rate": 0.700000
  },
  "sim": {
    "instructions": 1000,
    "total_sim_secs": 0.000000,
    "insts_per_sec": 0.000000
  }
}
"#;
    assert_eq!(manifest.render(), expected);
}
