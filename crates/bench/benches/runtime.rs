//! Criterion benchmarks: real execution throughput.

use ccs_exec::{execute_dag_cfg, RunConfig};
use ccs_graph::gen;
use ccs_graph::RateAnalysis;
use ccs_runtime::{execute, Instance, Ring, SpscRing};
use ccs_sched::baseline;
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

fn bench_rings(c: &mut Criterion) {
    let mut group = c.benchmark_group("rings");
    let chunk = [1.0f32; 32];
    let mut out = [0.0f32; 32];
    group.throughput(Throughput::Elements(32 * 1000));
    group.bench_function("serial-push-pop-32x1000", |b| {
        let mut ring = Ring::new(256);
        b.iter(|| {
            for _ in 0..1000 {
                ring.push_slice(&chunk);
                ring.pop_slice(&mut out);
            }
            out[0]
        })
    });
    group.bench_function("spsc-push-pop-32x1000", |b| {
        let ring = SpscRing::new(256);
        b.iter(|| {
            for _ in 0..1000 {
                ring.push_slice(&chunk);
                ring.pop_slice(&mut out);
            }
            out[0]
        })
    });
    group.finish();
}

fn bench_serial_executor(c: &mut Criterion) {
    let g = gen::pipeline_uniform(16, 256);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let run = baseline::single_appearance(&g, &ra, 512);
    let mut group = c.benchmark_group("real-exec");
    group.sample_size(10);
    group.throughput(Throughput::Elements(run.firings.len() as u64));
    group.bench_function("serial-16x256w", |b| {
        b.iter(|| {
            let mut inst = Instance::synthetic(g.clone());
            execute(&mut inst, &run).firings
        })
    });
    group.finish();
}

fn bench_parallel_executor(c: &mut Criterion) {
    let g = gen::pipeline_uniform(16, 256);
    let ra = RateAnalysis::analyze_single_io(&g).unwrap();
    let p = ccs_partition::dag_greedy::greedy_topo(&g, 1024);
    let mut group = c.benchmark_group("parallel-exec");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("threads", threads),
            &threads,
            |b, &threads| {
                b.iter(|| {
                    let inst = Instance::synthetic(g.clone());
                    execute_dag_cfg(inst, &ra, &p, 512, 4, &RunConfig::new(threads))
                        .unwrap()
                        .run
                        .firings
                })
            },
        );
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_rings,
    bench_serial_executor,
    bench_parallel_executor
);
criterion_main!(benches);
