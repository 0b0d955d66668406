//! Per-layer metrics, computed from the harness's spans and the
//! counts the workloads record. A layer is a crate; every traced run
//! reports every metric (see `main` for how layers a workload does
//! not enter are still measured).

use crate::harness::Counts;
use crate::paper::PREP_NAMES;
use crate::stats::{median, Report};
use crate::trace::{coverage_pct, Span};
use qods_core::StudyConfig;
use qods_kernels::KernelFamily;

/// Every per-layer metric, with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("steane.fig4_ms", "ms"),
    ("steane.prep.basic_ms", "ms"),
    ("steane.prep.verify_ms", "ms"),
    ("steane.prep.correct_ms", "ms"),
    ("steane.prep.verify_correct_ms", "ms"),
    ("phys.trials_per_s", "1/s"),
    ("steane.accept_frac", "ratio"),
    ("arch.fig15_ms", "ms"),
    ("arch.point_us", "us"),
    ("circuit.fig8_ms", "ms"),
    ("circuit.fig7_ms", "ms"),
    ("core.rest_ms", "ms"),
    ("core.regen_ms", "ms"),
    ("compile.ir_ms", "ms"),
    ("compile.sched_ms", "ms"),
    ("compile.char_ms", "ms"),
    ("compile.cold.qrca_ms", "ms"),
    ("compile.cold.qcla_ms", "ms"),
    ("compile.cold.qft_ms", "ms"),
    ("compile.cold.draper_ms", "ms"),
    ("compile.cold.ctrladd_ms", "ms"),
    ("compile.reload_ms", "ms"),
    ("compile.load_ms", "ms"),
    ("compile.computed", "count"),
    ("compile.mem_hits", "count"),
    ("compile.disk_hits", "count"),
    ("compile.corrupt_reads", "count"),
    ("compile.write_errors", "count"),
    ("compile.bytes_written", "bytes"),
    ("service.hit_run_ms", "ms"),
    ("service.job_key_us", "us"),
    ("service.checkout_hit_us", "us"),
    ("service.miss_handle_ms", "ms"),
    ("service.follower_extra_ms", "ms"),
    ("service.output_hit_rate", "ratio"),
    ("service.context_hit_rate", "ratio"),
    ("service.led", "count"),
    ("service.coalesced", "count"),
    ("service.exec_per_miss_round", "ratio"),
    ("net.hit_rtt_ms", "ms"),
    ("net.hit_handle_ms", "ms"),
    ("net.transport_ms", "ms"),
    ("net.codec_ms", "ms"),
    ("net.refused", "count"),
    ("net.client_retries", "count"),
    ("host.calib_ms", "ms"),
    ("host.calib_drift_pct", "%"),
    ("host.steal_s", "s"),
    ("harness.coverage_pct", "%"),
    ("harness.trace_overhead_pct", "%"),
];

fn unit(name: &str) -> &'static str {
    PER_LAYER
        .iter()
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
        .unwrap_or_else(|| panic!("`{name}` is not a per-layer metric"))
}

/// Durations (ms) of spans named `name`, optionally with `detail`.
fn durations(spans: &[Span], name: &str, detail: Option<&str>) -> Vec<f64> {
    spans
        .iter()
        .filter(|s| s.name == name && detail.is_none_or(|d| s.detail == d))
        .map(Span::ms)
        .collect()
}

/// For each span named `parent` (with `detail`, if given), the summed
/// duration of its direct children that pass `keep`.
fn child_sums(
    spans: &[Span],
    parent: &str,
    detail: Option<&str>,
    keep: impl Fn(&Span) -> bool,
) -> Vec<f64> {
    spans
        .iter()
        .filter(|p| p.name == parent && detail.is_none_or(|d| p.detail == d))
        .map(|p| {
            spans
                .iter()
                .filter(|c| c.parent == p.id && keep(c))
                .map(Span::ms)
                .sum()
        })
        .collect()
}

/// What the harness measured about the host and itself.
pub struct HostReadings {
    pub calib_start_ms: f64,
    pub calib_end_ms: f64,
    pub steal_s: f64,
    /// Op-span names of the workload under test (coverage base).
    pub op_spans: &'static [&'static str],
    /// Timed-loop wall time of the workload under test.
    pub wall_s: f64,
    /// Cost of recording one span, microseconds.
    pub span_cost_us: f64,
}

/// Builds the per-layer report.
pub fn report(spans: &[Span], counts: &Counts, host: &HostReadings) -> Report {
    let mut r = Report::default();
    let mut put = |name: &str, samples: &[f64]| {
        r.put(name, median(samples), unit(name), samples.len());
    };

    let run_one = |id: &str| durations(spans, "core.run_one", Some(id));
    let fig4 = run_one("fig4");
    let fig15 = run_one("fig15");
    put("steane.fig4_ms", &fig4);
    let mut prep_s = 0.0;
    for name in PREP_NAMES {
        let d = durations(spans, "steane.evaluate_prep", Some(name));
        prep_s += d.iter().sum::<f64>() / 1e3;
        put(&format!("steane.prep.{name}_ms"), &d);
    }
    let trials = counts.get("steane.trials").unwrap_or(0.0);
    let accepted = counts.get("steane.accepted").unwrap_or(0.0);
    put(
        "phys.trials_per_s",
        &[if prep_s > 0.0 { trials / prep_s } else { 0.0 }],
    );
    put(
        "steane.accept_frac",
        &[if trials > 0.0 { accepted / trials } else { 0.0 }],
    );

    let cfg = StudyConfig::default();
    let points = (cfg.sweep_points * cfg.arch_panel.len() * 3) as f64;
    put("arch.fig15_ms", &fig15);
    let point_us: Vec<f64> = fig15.iter().map(|ms| ms * 1e3 / points).collect();
    put("arch.point_us", &point_us);
    put("circuit.fig8_ms", &run_one("fig8"));
    put("circuit.fig7_ms", &run_one("fig7"));
    let science = ["fig4", "fig15", "fig7", "fig8"];
    put(
        "core.rest_ms",
        &child_sums(spans, "paper.regen", None, |c| {
            c.name == "core.context"
                || (c.name == "core.run_one" && !science.contains(&c.detail.as_str()))
        }),
    );
    put(
        "core.regen_ms",
        &durations(spans, "paper.regen", Some("warm")),
    );

    for stage in crate::compile::STAGES {
        let prefix = format!("{stage}/");
        put(
            &format!("compile.{stage}_ms"),
            &child_sums(spans, "compile.cold", None, |c| {
                c.name == "compile.stage" && c.detail.starts_with(&prefix)
            }),
        );
    }
    for family in KernelFamily::ALL {
        let suffix = format!("/{}", family.name());
        put(
            &format!("compile.cold.{}_ms", family.name()),
            &child_sums(spans, "compile.cold", None, |c| {
                c.name == "compile.stage" && c.detail.ends_with(&suffix)
            }),
        );
    }
    put(
        "compile.reload_ms",
        &durations(spans, "compile.reload", None),
    );
    put(
        "compile.load_ms",
        &child_sums(spans, "paper.regen", Some("warm"), |c| {
            c.name == "compile.load"
        }),
    );
    for name in [
        "compile.computed",
        "compile.mem_hits",
        "compile.disk_hits",
        "compile.corrupt_reads",
        "compile.write_errors",
        "compile.bytes_written",
    ] {
        put(name, &[counts.get(name).unwrap_or(0.0)]);
    }

    let hit_run = durations(spans, "service.run_coalesced", None);
    let us = |v: Vec<f64>| v.into_iter().map(|ms| ms * 1e3).collect::<Vec<_>>();
    put("service.hit_run_ms", &hit_run);
    put(
        "service.job_key_us",
        &us(durations(spans, "service.job_key", None)),
    );
    put(
        "service.checkout_hit_us",
        &us(durations(spans, "service.checkout", None)),
    );
    put(
        "service.miss_handle_ms",
        &durations(spans, "net.handle_line", Some("miss")),
    );
    for name in [
        "service.follower_extra_ms",
        "service.output_hit_rate",
        "service.context_hit_rate",
        "service.led",
        "service.coalesced",
        "service.exec_per_miss_round",
    ] {
        put(name, &[counts.get(name).unwrap_or(0.0)]);
    }

    let rtt = durations(spans, "net.roundtrip", Some("hit"));
    let handle = durations(spans, "net.handle_line", Some("hit"));
    put("net.hit_rtt_ms", &rtt);
    put("net.hit_handle_ms", &handle);
    put("net.transport_ms", &[median(&rtt) - median(&handle)]);
    put("net.codec_ms", &[median(&handle) - median(&hit_run)]);
    put("net.refused", &[counts.get("net.refused").unwrap_or(0.0)]);
    put(
        "net.client_retries",
        &[counts.get("net.client_retries").unwrap_or(0.0)],
    );

    put("host.calib_ms", &[host.calib_start_ms, host.calib_end_ms]);
    put(
        "host.calib_drift_pct",
        &[100.0 * (host.calib_end_ms - host.calib_start_ms) / host.calib_start_ms],
    );
    put("host.steal_s", &[host.steal_s]);
    let (mut covered, mut wall) = (0.0, 0.0);
    for name in host.op_spans {
        let n = durations(spans, name, None).iter().sum::<f64>();
        covered += coverage_pct(spans, name).unwrap_or(0.0) * n;
        wall += n;
    }
    put(
        "harness.coverage_pct",
        &[if wall > 0.0 { covered / wall } else { 0.0 }],
    );
    let recording_s = host.span_cost_us * spans.len() as f64 / 1e6;
    put(
        "harness.trace_overhead_pct",
        &[100.0 * recording_s / host.wall_s.max(1e-9)],
    );
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn per_layer_names_are_valid_and_unique() {
        let mut names: Vec<&str> = PER_LAYER.iter().map(|(n, _)| *n).collect();
        assert!(names.iter().all(|n| valid_name(n)));
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PER_LAYER.len());
    }

    #[test]
    fn an_empty_trace_still_reports_every_metric() {
        let host = HostReadings {
            calib_start_ms: 20.0,
            calib_end_ms: 21.0,
            steal_s: 0.0,
            op_spans: &["paper.regen"],
            wall_s: 1.0,
            span_cost_us: 0.1,
        };
        let r = report(&[], &Counts::default(), &host);
        let mut want = PER_LAYER.to_vec();
        want.sort_unstable();
        assert_eq!(r.entries(), want);
        assert_eq!(r.get("host.calib_drift_pct").map(|m| m.value), Some(5.0));
    }
}
