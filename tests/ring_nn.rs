//! Ring nearest-neighbour (Frye & Myczkowski, Sec. 8) as a scheme:
//! `Scheme::ring_nn()` runs on the one macro-step loop and the per-cycle
//! oracle. The pins below are the `Report` and goal count of the
//! dedicated per-cycle ring loop this scheme replaced, over
//! `GeometricTree { seed, b_max: 8, depth_limit: 6 }`; every engine, at one
//! and two host threads, must reproduce each of them exactly.

use simd_tree_search::core::{LocalBackend, LockstepDriver};
use simd_tree_search::prelude::*;
use simd_tree_search::synth::GeometricTree;
use simd_tree_search::tree::StackArena;

/// One case per line: seed, P, split; then the report's nodes expanded,
/// N_expand, N_lb, transfers, T_par, T_calc, T_idle, T_lb and E; then
/// goals.
const PINS: &str = "
2   1 bottom 8743 8743    0    0 262290000 262290000           0         0                  1.0 138
2   1 half   8743 8743    0    0 262290000 262290000           0         0                  1.0 138
2   1 top    8743 8743    0    0 262290000 262290000           0         0                  1.0 138
2   2 bottom 8743 4372   17   17 131177000 262290000       30000     34000   0.9997560547961915 138
2   2 half   8743 4373   11   11 131201000 262290000       90000     22000   0.9995731739849544 138
2   2 top    8743 4372  548  548 131708000 262290000       30000   1096000   0.9957253925350017 138
2   8 bottom 8743 1670 1409 1451  51509000 262290000   138510000  11272000   0.6365149779650158 138
2   8 half   8743 1373  784  862  41974000 262290000    67230000   6272000   0.7811085433839996 138
2   8 top    8743 2892 2641 2673  89401000 262290000   431790000  21128000   0.3667324750282435 138
2  64 bottom 8743 1670 1409 1451  51509000 262290000  2944110000  90176000  0.07956437224562697 138
2  64 half   8743 1309  944 1082  40214000 262290000  2250990000  60416000  0.10191180310339683 138
2  64 top    8743 2892 2641 2673  89401000 262290000  5290350000 169024000  0.04584155937853044 138
2 128 bottom 8743 1670 1409 1451  51509000 262290000  6150510000 180352000 0.039782186122813486 138
2 128 half   8743 1309  944 1082  40214000 262290000  4764270000 120832000 0.050955901551698414 138
2 128 top    8743 2892 2641 2673  89401000 262290000 10842990000 338048000  0.02292077968926522 138
3   1 bottom 5475 5475    0    0 164250000 164250000           0         0                  1.0  99
3   1 half   5475 5475    0    0 164250000 164250000           0         0                  1.0  99
3   1 top    5475 5475    0    0 164250000 164250000           0         0                  1.0  99
3   2 bottom 5475 2738   11   11  82151000 164250000       30000     22000   0.9996835096346971  99
3   2 half   5475 2738    9    9  82149000 164250000       30000     18000   0.9997078479348501  99
3   2 top    5475 2738  503  503  82643000 164250000       30000   1006000   0.9937320765219075  99
3   8 bottom 5475 1015  841  881  31291000 164250000    79350000   6728000   0.6561391454411811  99
3   8 half   5475  885  523  567  27073000 164250000    48150000   4184000    0.758366268976471  99
3   8 top    5475 2001 1825 1833  61855000 164250000   315990000  14600000  0.33192547085926766  99
3  64 bottom 5475 1015  841  881  31291000 164250000  1784550000  53824000  0.08201739318014764  99
3  64 half   5475  907  618  690  27828000 164250000  1577190000  39552000  0.09222388421733506  99
3  64 top    5475 2001 1825 1833  61855000 164250000  3677670000 116800000  0.04149068385740846  99
3 128 bottom 5475 1015  841  881  31291000 164250000  3733350000 107648000  0.04100869659007382  99
3 128 half   5475  907  618  690  27828000 164250000  3318630000  79104000  0.04611194210866753  99
3 128 top    5475 2001 1825 1833  61855000 164250000  7519590000 233600000  0.02074534192870423  99
4   1 bottom  887  887    0    0  26610000  26610000           0         0                  1.0   9
4   1 half    887  887    0    0  26610000  26610000           0         0                  1.0   9
4   1 top     887  887    0    0  26610000  26610000           0         0                  1.0   9
4   2 bottom  887  445    8    8  13358000  26610000       90000     16000   0.9960323401706842   9
4   2 half    887  445   10   10  13360000  26610000       90000     20000   0.9958832335329342   9
4   2 top     887  445   58   58  13408000  26610000       90000    116000   0.9923180190930787   9
4   8 bottom  887  197  167  170   6077000  26610000    20670000   1336000   0.5473506664472602   9
4   8 half    887  164  112  124   5032000  26610000    12750000    896000   0.6610194753577107   9
4   8 top     887  270  241  249   8341000  26610000    38190000   1928000  0.39878311953003237   9
4  64 bottom  887  197  167  170   6077000  26610000   351630000  10688000  0.06841883330590752   9
4  64 half    887  164  116  128   5036000  26610000   288270000   7424000  0.08256180500397141   9
4  64 top     887  270  241  249   8341000  26610000   491790000  15424000 0.049847889941254046   9
4 128 bottom  887  197  167  170   6077000  26610000   729870000  21376000  0.03420941665295376   9
4 128 half    887  164  116  128   5036000  26610000   603150000  14848000 0.041280902501985704   9
4 128 top     887  270  241  249   8341000  26610000  1010190000  30848000 0.024923944970627023   9
5   1 bottom 4228 4228    0    0 126840000 126840000           0         0                  1.0  87
5   1 half   4228 4228    0    0 126840000 126840000           0         0                  1.0  87
5   1 top    4228 4228    0    0 126840000 126840000           0         0                  1.0  87
5   2 bottom 4228 2115    7    7  63457000 126840000       60000     14000   0.9994169279984871  87
5   2 half   4228 2115   10   10  63460000 126840000       60000     20000   0.9993696816892531  87
5   2 top    4228 2115  279  279  63729000 126840000       60000    558000    0.995151343972132  87
5   8 bottom 4228  810  682  708  24982000 126840000    67560000   5456000   0.6346569530061644  87
5   8 half   4228  649  334  369  19804000 126840000    28920000   2672000   0.8005958392243991  87
5   8 top    4228 1321 1185 1194  40815000 126840000   190200000   9480000    0.388460124954061  87
5  64 bottom 4228  810  682  708  24982000 126840000  1428360000  43648000  0.07933211912577055  87
5  64 half   4228  638  455  505  19595000 126840000  1098120000  29120000  0.10114187292676703  87
5  64 top    4228 1321 1185 1194  40815000 126840000  2409480000  75840000  0.04855751561925763  87
5 128 bottom 4228  810  682  708  24982000 126840000  2983560000  87296000  0.03966605956288528  87
5 128 half   4228  638  455  505  19595000 126840000  2323080000  58240000 0.050570936463383516  87
5 128 top    4228 1321 1185 1194  40815000 126840000  4945800000 151680000 0.024278757809628813  87
6   1 bottom 7092 7092    0    0 212760000 212760000           0         0                  1.0 108
6   1 half   7092 7092    0    0 212760000 212760000           0         0                  1.0 108
6   1 top    7092 7092    0    0 212760000 212760000           0         0                  1.0 108
6   2 bottom 7092 3547   13   13 106423000 212760000       60000     26000   0.9995959520028566 108
6   2 half   7092 3547   18   18 106428000 212760000       60000     36000   0.9995489908670651 108
6   2 top    7092 3547  349  349 106759000 212760000       60000    698000   0.9964499480137506 108
6   8 bottom 7092 1309 1115 1164  40385000 212760000   101400000   8920000   0.6585365853658537 108
6   8 half   7092 1062  531  585  32391000 212760000    42120000   4248000   0.8210614059460961 108
6   8 top    7092 2247 2046 2069  69456000 212760000   326520000  16368000   0.3829042847270214 108
6  64 bottom 7092 1309 1115 1164  40385000 212760000  2300520000  71360000  0.08231707317073171 108
6  64 half   7092 1028  710  786  31550000 212760000  1761000000  45440000  0.10536846275752773 108
6  64 top    7092 2247 2046 2069  69456000 212760000  4101480000 130944000  0.04786303559087768 108
6 128 bottom 7092 1309 1115 1164  40385000 212760000  4813800000 142720000 0.041158536585365856 108
6 128 half   7092 1028  710  786  31550000 212760000  3734760000  90880000 0.052684231378763866 108
6 128 top    7092 2247 2046 2069  69456000 212760000  8415720000 261888000  0.02393151779543884 108
7   1 bottom    1    1    0    0     30000     30000           0         0                  1.0   0
7   1 half      1    1    0    0     30000     30000           0         0                  1.0   0
7   1 top       1    1    0    0     30000     30000           0         0                  1.0   0
7   2 bottom    1    1    0    0     30000     30000       30000         0                  0.5   0
7   2 half      1    1    0    0     30000     30000       30000         0                  0.5   0
7   2 top       1    1    0    0     30000     30000       30000         0                  0.5   0
7   8 bottom    1    1    0    0     30000     30000      210000         0                0.125   0
7   8 half      1    1    0    0     30000     30000      210000         0                0.125   0
7   8 top       1    1    0    0     30000     30000      210000         0                0.125   0
7  64 bottom    1    1    0    0     30000     30000     1890000         0             0.015625   0
7  64 half      1    1    0    0     30000     30000     1890000         0             0.015625   0
7  64 top       1    1    0    0     30000     30000     1890000         0             0.015625   0
7 128 bottom    1    1    0    0     30000     30000     3810000         0            0.0078125   0
7 128 half      1    1    0    0     30000     30000     3810000         0            0.0078125   0
7 128 top       1    1    0    0     30000     30000     3810000         0            0.0078125   0
8   1 bottom 2545 2545    0    0  76350000  76350000           0         0                  1.0  42
8   1 half   2545 2545    0    0  76350000  76350000           0         0                  1.0  42
8   1 top    2545 2545    0    0  76350000  76350000           0         0                  1.0  42
8   2 bottom 2545 1274    4    4  38224000  76350000       90000      8000   0.9987180828798661  42
8   2 half   2545 1274   11   11  38231000  76350000       90000     22000   0.9985352201093354  42
8   2 top    2545 1274  192  192  38412000  76350000       90000    384000   0.9938300531084037  42
8   8 bottom 2545  563  473  490  17363000  76350000    58770000   3784000   0.5496601969705696  42
8   8 half   2545  459  291  319  14061000  76350000    33810000   2328000     0.67873906550032  42
8   8 top    2545  871  795  798  26925000  76350000   132690000   6360000   0.3544568245125348  42
8  64 bottom 2545  563  473  490  17363000  76350000  1004610000  30272000   0.0687075246213212  42
8  64 half   2545  456  312  341  13992000  76350000   799170000  19968000  0.08526077401372213  42
8  64 top    2545  871  795  798  26925000  76350000  1595970000  50880000  0.04430710306406685  42
8 128 bottom 2545  563  473  490  17363000  76350000  2085570000  60544000   0.0343537623106606  42
8 128 half   2545  456  312  341  13992000  76350000  1674690000  39936000 0.042630387006861066  42
8 128 top    2545  871  795  798  26925000  76350000  3268290000 101760000 0.022153551532033425  42
9   1 bottom 8760 8760    0    0 262800000 262800000           0         0                  1.0 145
9   1 half   8760 8760    0    0 262800000 262800000           0         0                  1.0 145
9   1 top    8760 8760    0    0 262800000 262800000           0         0                  1.0 145
9   2 bottom 8760 4381   10   10 131440000 262800000       60000     20000   0.9996956786366403 145
9   2 half   8760 4381   11   11 131441000 262800000       60000     22000   0.9996880729757077 145
9   2 top    8760 4382  585  585 132045000 262800000      120000   1170000   0.9951153016017267 145
9   8 bottom 8760 1579 1342 1380  48712000 262800000   116160000  10736000   0.6743718180325177 145
9   8 half   8760 1287  585  635  39195000 262800000    46080000   4680000   0.8381171067738232 145
9   8 top    8760 2785 2548 2579  86098000 262800000   405600000  20384000   0.3815419638086831 145
9  64 bottom 8760 1579 1342 1380  48712000 262800000  2768880000  85888000  0.08429647725406471 145
9  64 half   8760 1253  886 1010  38476000 262800000  2142960000  56704000  0.10672237238798211 145
9  64 top    8760 2785 2548 2579  86098000 262800000  5084400000 163072000  0.04769274547608539 145
9 128 bottom 8760 1579 1342 1380  48712000 262800000  5800560000 171776000 0.042148238627032354 145
9 128 half   8760 1253  886 1010  38476000 262800000  4548720000 113408000  0.05336118619399106 145
9 128 top    8760 2785 2548 2579  86098000 262800000 10431600000 326144000 0.023846372738042694 145
";

struct Pin {
    seed: u64,
    p: usize,
    split: SplitPolicy,
    report: Report,
    goals: u64,
}

fn pins() -> Vec<Pin> {
    PINS.lines()
        .filter(|l| !l.is_empty())
        .map(|line| {
            let f: Vec<&str> = line.split_whitespace().collect();
            assert_eq!(f.len(), 13, "{line}");
            let n = |i: usize| -> u64 { f[i].parse().unwrap() };
            let p = n(1) as usize;
            Pin {
                seed: n(0),
                p,
                split: match f[2] {
                    "bottom" => SplitPolicy::Bottom,
                    "half" => SplitPolicy::Half,
                    "top" => SplitPolicy::Top,
                    other => panic!("split {other}"),
                },
                report: Report {
                    p,
                    nodes_expanded: n(3),
                    n_expand: n(4),
                    n_lb: n(5),
                    n_transfers: n(6),
                    t_par: n(7),
                    t_calc: n(8),
                    t_idle: n(9),
                    t_lb: n(10),
                    efficiency: f[11].parse().unwrap(),
                    active_trace: Default::default(),
                },
                goals: n(12),
            }
        })
        .collect()
}

fn tree(seed: u64) -> GeometricTree {
    GeometricTree { seed, b_max: 8, depth_limit: 6 }
}

fn ring(p: usize) -> EngineConfig {
    EngineConfig::new(p, Scheme::ring_nn(), CostModel::cm2())
}

/// The par engine at two threads with every burst fanned out, however
/// small (the engine's own bar would run these trees inline).
fn fanned_out(tree: &GeometricTree, cfg: &EngineConfig) -> Outcome {
    let mut arena = StackArena::new(cfg.p);
    arena.push_frame_with(0, |frame| frame.push(tree.root()));
    let Ok(out) = LockstepDriver::fresh(cfg).drive(&mut LocalBackend::new(tree, arena, 2, 0));
    out
}

#[test]
fn the_pin_matrix_is_complete() {
    assert_eq!(pins().len(), 8 * 5 * 3);
}

#[test]
fn every_engine_reproduces_every_pin() {
    for pin in pins() {
        let tree = tree(pin.seed);
        let cfg = ring(pin.p).with_split(pin.split);
        let case = format!("seed {} P={} {:?}", pin.seed, pin.p, pin.split);
        let engine = |kind| run_with(&tree, &cfg.clone().with_engine(kind).with_threads(1));
        let legs = [
            ("reference", engine(EngineKind::Reference)),
            ("macro", engine(EngineKind::Macro)),
            ("par, 1 thread", engine(EngineKind::Par)),
            ("par, 2 threads", fanned_out(&tree, &cfg)),
        ];
        for (leg, out) in legs {
            assert_eq!(out.report, pin.report, "{leg}: {case}");
            assert_eq!(out.goals, pin.goals, "{leg}: {case}");
        }
    }
}

#[test]
fn ring_nn_is_anomaly_free_and_finds_the_serial_goals() {
    let tree = tree(2);
    let serial = serial_dfs(&tree);
    for p in [1usize, 2, 8, 16, 64] {
        let out = run(&tree, &ring(p));
        assert_eq!(out.report.nodes_expanded, serial.expanded, "P={p}");
        assert_eq!(out.goals, serial.goals, "P={p}");
        if p == 1 {
            assert_eq!(out.report.n_lb, 0, "a one-PE ring has no neighbour to feed");
        }
    }
}

#[test]
fn ring_diffusion_idles_at_least_as_much_as_global_matching() {
    // Ring diffusion reaches PEs one hop per step, so the idle time on a
    // wide machine is at least that of a global scheme.
    let tree = GeometricTree { seed: 6, b_max: 8, depth_limit: 7 };
    let nn = run(&tree, &ring(128));
    let global = run(&tree, &EngineConfig::new(128, Scheme::gp_static(0.9), CostModel::cm2()));
    assert!(
        nn.report.t_idle >= global.report.t_idle,
        "nn {} vs global {}",
        nn.report.t_idle,
        global.report.t_idle
    );
}

/// The ledger identities (phase costs × P = `T_lb`, one neighbour step per
/// phase) are held by `engine_differential`'s ring-NN property.
#[test]
fn the_accounting_identity_holds() {
    let out = run(&tree(5), &ring(32));
    assert!(out.report.accounting_identity_holds());
}

#[test]
fn the_split_policy_moves_diffusion_but_not_work() {
    // Splitting quality shifts when work spreads (the paper's
    // isoefficiency sensitivity), never how much work exists.
    let tree = tree(8);
    let w = serial_dfs(&tree).expanded;
    let mut cycles = Vec::new();
    for split in [SplitPolicy::Bottom, SplitPolicy::Half, SplitPolicy::Top] {
        let out = run(&tree, &ring(16).with_split(split));
        assert_eq!(out.report.nodes_expanded, w, "{split:?}");
        cycles.push(out.report.n_expand);
    }
    assert!(cycles.windows(2).any(|c| c[0] != c[1]), "splits all diffused alike: {cycles:?}");
}

#[test]
fn a_two_ring_transfers() {
    // On a 2-ring the donor can only ever feed PE 1; the first balancing
    // step must move work there, after which some cycles expand two
    // nodes, so the node count exceeds the cycle count.
    let out = run(&tree(9), &ring(2));
    assert!(out.report.n_transfers >= 1);
    assert!(out.report.nodes_expanded > out.report.n_expand, "both PEs worked some cycle");
}
