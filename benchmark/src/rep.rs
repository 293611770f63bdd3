//! What one repetition (a fresh child process) reports to the harness: a
//! single JSON line on its standard output.

use std::collections::BTreeMap;
use std::fmt::Write as _;

use uts_core::Outcome;
use uts_serve::json::Json;

use crate::workloads::SimCounts;

/// Simulated quantities: identical across repetitions, hosts and any
/// commit that only speeds the simulator up.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Sim {
    pub nodes: u64,
    pub cycles: u64,
    pub phases: u64,
    pub transfers: u64,
    pub efficiency: f64,
    pub peak_stack: u64,
    /// `outcome_digest` (XOR over the jobs on `serve-churn`).
    pub digest: u64,
}

impl Sim {
    /// The four counts that are pinned for the default seed.
    pub fn counts(&self) -> SimCounts {
        SimCounts {
            nodes: self.nodes,
            cycles: self.cycles,
            phases: self.phases,
            transfers: self.transfers,
        }
    }

    pub fn of(out: &Outcome) -> Self {
        Self {
            nodes: out.report.nodes_expanded,
            cycles: out.report.n_expand,
            phases: out.report.n_lb,
            transfers: out.report.n_transfers,
            efficiency: out.report.efficiency,
            peak_stack: out.peak_stack_nodes as u64,
            digest: uts_serve::outcome_digest(out),
        }
    }
}

#[derive(Debug, Clone, Default)]
pub struct Rep {
    /// Raw seconds of the timed region.
    pub wall_s: f64,
    /// Raw seconds from child start to the timed region, reference kernel
    /// runs excluded.
    pub setup_s: f64,
    /// Reference kernel seconds: at start, before and after the timed region.
    pub refs: [f64; 3],
    /// `VmHWM` over the timed region, KiB.
    pub hwm_kb: u64,
    /// Largest reaped shard worker's `ru_maxrss`, KiB.
    pub worker_rss_kb: u64,
    pub sim: Sim,
    /// Nodes and digest of the warm instance's run.
    pub warm_nodes: u64,
    pub warm_digest: u64,
    /// Operations attempted / failed in the timed region.
    pub attempted: u64,
    pub failed: u64,
    /// Per-job submit → result latency, raw ms (one entry, the whole run,
    /// on single-job workloads).
    pub latencies_ms: Vec<f64>,
    /// Per-layer numbers of a traced repetition.
    pub layers: BTreeMap<String, f64>,
}

/// A finite float with every digit, as a JSON number.
pub fn num(v: f64) -> String {
    assert!(v.is_finite(), "metrics are finite");
    format!("{v:?}")
}

impl Rep {
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        let _ = write!(
            s,
            "{{\"wall_s\":{},\"setup_s\":{},\"refs\":[{},{},{}],\"hwm_kb\":{},\"worker_rss_kb\":{}",
            num(self.wall_s),
            num(self.setup_s),
            num(self.refs[0]),
            num(self.refs[1]),
            num(self.refs[2]),
            self.hwm_kb,
            self.worker_rss_kb
        );
        let _ = write!(
            s,
            ",\"nodes\":{},\"cycles\":{},\"phases\":{},\"transfers\":{},\"efficiency\":{},\"peak_stack\":{},\"digest\":{}",
            self.sim.nodes,
            self.sim.cycles,
            self.sim.phases,
            self.sim.transfers,
            num(self.sim.efficiency),
            self.sim.peak_stack,
            self.sim.digest
        );
        let _ = write!(
            s,
            ",\"warm_nodes\":{},\"warm_digest\":{},\"attempted\":{},\"failed\":{}",
            self.warm_nodes, self.warm_digest, self.attempted, self.failed
        );
        let lat: Vec<String> = self.latencies_ms.iter().map(|&v| num(v)).collect();
        let _ = write!(s, ",\"latencies_ms\":[{}]", lat.join(","));
        let layers: Vec<String> =
            self.layers.iter().map(|(k, &v)| format!("\"{k}\":{}", num(v))).collect();
        let _ = write!(s, ",\"layers\":{{{}}}}}", layers.join(","));
        s
    }

    pub fn from_json(line: &str) -> Result<Rep, String> {
        let doc = Json::parse(line)?;
        let f = |k: &str| {
            doc.get(k).and_then(Json::as_f64).ok_or_else(|| format!("report lacks number `{k}`"))
        };
        let u = |k: &str| {
            doc.get(k).and_then(Json::as_u64).ok_or_else(|| format!("report lacks integer `{k}`"))
        };
        let floats = |k: &str| match doc.get(k) {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|v| v.as_f64().ok_or_else(|| format!("`{k}` holds a non-number")))
                .collect::<Result<Vec<f64>, String>>(),
            _ => Err(format!("report lacks array `{k}`")),
        };
        let refs = floats("refs")?;
        let layers = match doc.get("layers") {
            Some(Json::Obj(map)) => map
                .iter()
                .map(|(k, v)| {
                    v.as_f64().map(|v| (k.clone(), v)).ok_or_else(|| format!("layer `{k}`"))
                })
                .collect::<Result<BTreeMap<String, f64>, String>>()?,
            _ => return Err("report lacks `layers`".into()),
        };
        Ok(Rep {
            wall_s: f("wall_s")?,
            setup_s: f("setup_s")?,
            refs: refs.try_into().map_err(|_| "`refs` holds three timings".to_string())?,
            hwm_kb: u("hwm_kb")?,
            worker_rss_kb: u("worker_rss_kb")?,
            sim: Sim {
                nodes: u("nodes")?,
                cycles: u("cycles")?,
                phases: u("phases")?,
                transfers: u("transfers")?,
                efficiency: f("efficiency")?,
                peak_stack: u("peak_stack")?,
                digest: u("digest")?,
            },
            warm_nodes: u("warm_nodes")?,
            warm_digest: u("warm_digest")?,
            attempted: u("attempted")?,
            failed: u("failed")?,
            latencies_ms: floats("latencies_ms")?,
            layers,
        })
    }
}
