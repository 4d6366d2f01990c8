//! Interval-core throughput: simulated instructions per second for several
//! workload characters, plus cache and branch-predictor microbenchmarks.

use criterion::{black_box, criterion_group, criterion_main, Criterion, Throughput};

use hotgauge_perf::branch::TournamentPredictor;
use hotgauge_perf::cache::Cache;
use hotgauge_perf::config::{CacheConfig, CoreConfig, MemoryConfig};
use hotgauge_perf::engine::CoreSim;
use hotgauge_workloads::generator::WorkloadGen;
use hotgauge_workloads::spec2006;

fn bench_core(c: &mut Criterion) {
    let mut group = c.benchmark_group("interval_core");
    const N: u64 = 100_000;
    group.throughput(Throughput::Elements(N));
    for bench in ["hmmer", "gcc", "mcf"] {
        let profile = spec2006::profile(bench).unwrap();
        let mut gen = WorkloadGen::new(profile, 7);
        let mut core = CoreSim::new(CoreConfig::default(), MemoryConfig::default());
        core.warm_up(&mut gen, 1_000_000);
        group.bench_function(bench, |b| {
            b.iter(|| core.run_instructions(black_box(&mut gen), N))
        });
    }
    group.finish();
}

fn bench_cache(c: &mut Criterion) {
    let mut group = c.benchmark_group("cache");
    const N: u64 = 100_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("l1_hit_stream", |b| {
        let mut cache = Cache::new(CacheConfig::l1_default());
        b.iter(|| {
            for i in 0..N {
                cache.access(black_box((i % 256) * 64));
            }
        })
    });
    group.bench_function("l1_miss_stream", |b| {
        let mut cache = Cache::new(CacheConfig::l1_default());
        let mut a = 0u64;
        b.iter(|| {
            for _ in 0..N {
                a = a.wrapping_add(64 * 513);
                cache.access(black_box(a));
            }
        })
    });
    group.bench_function("l3_miss_stream", |b| {
        // The Table-I L3, whose tags are `u16`: a 513-line stride through
        // the 2^32-byte generated address space misses on every access.
        let mut cache = Cache::new(CacheConfig::l3_default());
        let mut a = 0u64;
        b.iter(|| {
            for _ in 0..N {
                a = (a + 64 * 513) & 0xFFFF_FFFF;
                cache.access(black_box(a));
            }
        })
    });
    group.finish();
}

fn bench_predictor(c: &mut Criterion) {
    let mut group = c.benchmark_group("branch_predictor");
    const N: u64 = 100_000;
    group.throughput(Throughput::Elements(N));
    group.bench_function("tournament", |b| {
        let mut p = TournamentPredictor::new(13, 13, 12);
        let mut x = 1u64;
        b.iter(|| {
            for i in 0..N {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                p.predict_and_update(black_box(0x400 + (i % 512) * 4), x & 3 != 0);
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_core, bench_cache, bench_predictor);
criterion_main!(benches);
