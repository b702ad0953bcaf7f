//! Criterion benches for the UEC path (Fig. 9, Table 3): qubit-assignment
//! search, schedule construction, module construction, and Monte-Carlo
//! cycles.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hetarch::modules::uec::sim::first_order_table;
use hetarch::modules::uec::{build_schedule, search_assignment, ChainUecModule};
use hetarch::prelude::*;

fn usc() -> UscChannel {
    // Shared library: the second bench asking for this channel gets the
    // cached characterization instead of re-simulating.
    static LIB: std::sync::OnceLock<CellLibrary> = std::sync::OnceLock::new();
    let lib = LIB.get_or_init(CellLibrary::new);
    (*lib.get::<UscCell>(
        &catalog::coherence_limited_compute(0.5e-3),
        &catalog::coherence_limited_storage(50e-3),
    ))
    .clone()
}

fn bench_assignment_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_assignment");
    group.sample_size(10);
    for (name, code) in [
        ("steane_exhaustive", steane()),
        ("sc3_exhaustive", rotated_surface_code(3)),
        ("color17_hillclimb", color_17()),
        ("sc5_hillclimb", rotated_surface_code(5)),
    ] {
        group.bench_function(name, |b| {
            b.iter(|| search_assignment(&code, 3, 10));
        });
    }
    group.finish();
}

fn bench_schedule_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_schedule");
    let ch = usc();
    let code = color_17();
    let assignment = search_assignment(&code, 3, 10);
    group.bench_function("color17", |b| {
        b.iter(|| build_schedule(&code, &assignment, &ch));
    });
    group.finish();
}

/// Everything `UecModule::new` builds per design point (assignment,
/// schedule, lookup table, fault table), and the fault table alone.
fn bench_module_build(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_build");
    group.sample_size(10);
    let ch = usc();
    for d in [3, 5] {
        let code = rotated_surface_code(d);
        group.bench_function(BenchmarkId::new("module_new", format!("sc{d}")), |b| {
            b.iter(|| UecModule::new(code.clone(), ch.clone(), UecNoise::default()));
        });
    }
    let code = rotated_surface_code(5);
    let serial: Vec<Vec<usize>> = (0..code.stabilizers().len()).map(|s| vec![s]).collect();
    group.bench_function("first_order_table/sc5", |b| {
        b.iter(|| first_order_table(&code, &serial));
    });
    group.finish();
}

fn bench_monte_carlo(c: &mut Criterion) {
    let mut group = c.benchmark_group("uec_monte_carlo");
    group.sample_size(10);
    let ch = usc();
    let noise = UecNoise::default();
    let shots = 2_000;
    group.throughput(Throughput::Elements(shots as u64));
    // `sc5` is the served design-space hot case.
    for (name, code) in [
        ("Steane", steane()),
        ("17QCC", color_17()),
        ("RM15", reed_muller_15()),
        ("sc5", rotated_surface_code(5)),
    ] {
        let module = UecModule::new(code, ch.clone(), noise);
        group.bench_with_input(BenchmarkId::new("cycles", name), &shots, |b, &shots| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                module.logical_error_rate(shots, seed)
            });
        });
    }
    // The other two modules that run the same compiled cycle interpreter.
    let hom = HomModule::new(steane(), 0.5e-3, noise);
    group.bench_with_input(
        BenchmarkId::new("hom_cycles", "steane"),
        &shots,
        |b, &shots| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                hom.logical_error_rate(shots, seed)
            });
        },
    );
    let chain = ChainUecModule::new(steane(), ch.clone(), 1, noise);
    group.bench_with_input(
        BenchmarkId::new("chain_cycles", "steane"),
        &shots,
        |b, &shots| {
            let mut seed = 0;
            b.iter(|| {
                seed += 1;
                chain.logical_error_rate(shots, seed)
            });
        },
    );
    group.finish();
}

criterion_group!(
    benches,
    bench_assignment_search,
    bench_schedule_build,
    bench_module_build,
    bench_monte_carlo
);
criterion_main!(benches);
