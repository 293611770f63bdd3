//! Validate the Sec. 3.3 interconnect cost models by *routing* the
//! matching traffic instead of assuming the formulas.
//!
//! ```text
//! cargo run --release -p uts-bench --bin routing -- [--quick]
//! ```
//!
//! For each machine size we generate rendezvous matchings (the exact
//! traffic a balancing phase ships), route them on a simulated hypercube
//! (e-cube) and mesh (XY) under link contention, and print measured
//! delivery steps next to the `log^2 P` / `sqrt P` model curves that
//! `uts-machine`'s cost models (and Table 6) assume.

use uts_analysis::table::TextTable;
use uts_bench::parse_quick;
use uts_net::hypercube::Hypercube;
use uts_net::mesh::Mesh;
use uts_net::{route_with, scan_depth, Links, Message, Router};
use uts_scan::rendezvous_match_from;
use uts_synth::splitmix64;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (_, quick) = parse_quick(&args);
    let dims: Vec<u32> = if quick { vec![6, 8, 10] } else { vec![6, 8, 10, 12, 13] };
    println!(
        "== Routed balancing-phase traffic vs the Sec. 3.3 cost models ==\n\
         (mean over 8 random busy patterns at 60% occupancy; steps = synchronous\n\
         store-and-forward link-contention delivery time of the whole matching)\n"
    );
    let mut t = TextTable::new(vec![
        "P",
        "scan depth (log2 P)",
        "hypercube steps",
        "log^2 P",
        "mesh steps",
        "2 sqrt(P)",
    ]);
    for &d in &dims {
        let p = 1usize << d;
        let mut hyper_total = 0u32;
        let mut mesh_total = 0u32;
        let (cube, mesh) = (Hypercube::new(p), Mesh::new(p));
        let (mut cube_links, mut mesh_links) = (Links::default(), Links::default());
        let rounds = 8u64;
        for r in 0..rounds {
            let busy: Vec<bool> =
                (0..p).map(|i| splitmix64(r ^ (i as u64) << 20 ^ d as u64) % 10 < 6).collect();
            let idle: Vec<bool> = busy.iter().map(|&b| !b).collect();
            let start = (splitmix64(r) % p as u64) as usize;
            let pairs = rendezvous_match_from(&busy, &idle, start);
            let messages: Vec<Message> =
                pairs.iter().map(|pr| Message { src: pr.donor, dst: pr.receiver }).collect();
            hyper_total += route_with(&mut cube_links, &cube, &messages).steps;
            // Re-range endpoints into the (possibly larger) square mesh.
            let mesh_messages: Vec<Message> = messages
                .iter()
                .map(|m| Message { src: m.src % mesh.size(), dst: m.dst % mesh.size() })
                .collect();
            mesh_total += route_with(&mut mesh_links, &mesh, &mesh_messages).steps;
        }
        t.row(vec![
            p.to_string(),
            scan_depth(p).to_string(),
            format!("{:.0}", hyper_total as f64 / rounds as f64),
            (d * d).to_string(),
            format!("{:.0}", mesh_total as f64 / rounds as f64),
            (2.0 * (p as f64).sqrt()).round().to_string(),
        ]);
    }
    println!("{t}");
    println!(
        "(The hypercube column staying at or below log^2 P and the mesh column\n\
         tracking sqrt(P) are the premises behind Table 6's isoefficiency rows\n\
         and uts-machine's Hypercube/Mesh cost models.)"
    );
}
