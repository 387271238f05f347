//! Section 9 ablation: parallelizing the MinWork strategy vs the dual-stage
//! strategy — scheduling cost and stage-parallel execution.

use criterion::{black_box, criterion_group, criterion_main, BatchSize, Criterion};
use uww::core::{makespan, min_work, parallelize, CostModel, SizeCatalog};
use uww_bench::figure4_with_changes;

fn bench_parallel(c: &mut Criterion) {
    let sc = figure4_with_changes(0.10);
    let g = sc.warehouse.vdag();
    let sizes = SizeCatalog::estimate(&sc.warehouse).unwrap();
    let model = CostModel::new(g, &sizes);
    let plan = min_work(g, &sizes).unwrap();
    let dual = sc.dual_stage_strategy();

    let mut group = c.benchmark_group("parallel_ablation");
    group.sample_size(10);

    group.bench_function("schedule_minwork", |b| {
        b.iter(|| black_box(parallelize(g, &plan.strategy)))
    });
    group.bench_function("schedule_dual_stage", |b| {
        b.iter(|| black_box(parallelize(g, &dual)))
    });

    let p1 = parallelize(g, &plan.strategy);
    let pd = parallelize(g, &dual);
    group.bench_function("makespan_eval", |b| {
        b.iter(|| black_box(makespan(&model, &p1) + makespan(&model, &pd)))
    });

    group.bench_function("execute_parallel_minwork", |b| {
        b.iter_batched(
            || sc.warehouse.clone(),
            |mut w| w.execute(&p1.linearize()).unwrap(),
            BatchSize::LargeInput,
        )
    });
    group.bench_function("execute_parallel_dual_stage", |b| {
        b.iter_batched(
            || sc.warehouse.clone(),
            |mut w| w.execute(&pd.linearize()).unwrap(),
            BatchSize::LargeInput,
        )
    });

    group.finish();
}

criterion_group!(benches, bench_parallel);
criterion_main!(benches);
