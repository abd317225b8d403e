//! Golden plans for the engine's constructive search.
//!
//! `TpiEngine::optimize` measures coverage by fault simulation, proposes
//! region DP plans and single-point candidates, and commits the group
//! that the simulation referee scores best. The properties elsewhere
//! check that batched scoring equals legacy scoring and that an
//! interrupted plan is a prefix of the full one; none of them notices a
//! different winner. This file pins the exact output instead: on seeded
//! DAGs (below and above the 512-node step of the auto block width), on
//! a DAG that already carries one test point of every kind, under both
//! detection modes, at one and two scoring threads and under a work
//! budget that cuts the run short, the plan's points (kind and node
//! name, in order), the bits of its cost, the bits of every round's
//! measured coverage, the interruption reason and the number of
//! candidate groups scored must equal the recorded values in `GOLDEN`.
//!
//! A deliberate change to the engine's output means re-recording the
//! table; a failing run prints every case's actual line in the table's
//! syntax.

use krishnamurthy_tpi::core::Threshold;
use krishnamurthy_tpi::engine::{EngineConfig, OptimizeConfig, RunControl, TpiEngine};
use krishnamurthy_tpi::gen::dags::{random_dag, RandomDagConfig};
use krishnamurthy_tpi::netlist::transform::apply_test_point;
use krishnamurthy_tpi::netlist::{Circuit, TestPoint, TestPointKind};
use krishnamurthy_tpi::sim::DetectionMode;

fn dag(inputs: usize, gates: usize, seed: u64) -> Circuit {
    random_dag(&RandomDagConfig::new(inputs, gates, seed)).unwrap()
}

/// A seeded DAG with a CP-AND, a CP-OR, an OP and a full point already
/// applied, so the search starts from a circuit with test inputs,
/// re-driven branches and extra outputs.
fn dag_with_points() -> Circuit {
    let mut circuit = dag(16, 100, 6);
    for (name, kind) in [
        ("g20", TestPointKind::ControlAnd),
        ("g41", TestPointKind::ControlOr),
        ("g57", TestPointKind::Observe),
        ("g73", TestPointKind::Full),
    ] {
        let node = circuit.find_node(name).expect("generated gate name");
        apply_test_point(&mut circuit, TestPoint::new(node, kind)).unwrap();
    }
    circuit
}

/// A detection mode and a scoring thread count.
type Run = (DetectionMode, usize);

fn line(
    circuit: &Circuit,
    exp: f64,
    detection: DetectionMode,
    score_threads: usize,
    budget: Option<u64>,
) -> String {
    let config = EngineConfig {
        detection,
        score_threads,
        ..EngineConfig::default()
    };
    let mut engine = TpiEngine::new(circuit.clone(), config).unwrap();
    if let Some(units) = budget {
        engine.set_control(RunControl::with_budget(units));
    }
    let outcome = match engine.optimize(Threshold::from_log2(exp), &OptimizeConfig::default()) {
        Ok(outcome) => outcome,
        Err(e) => return format!("error: {e}"),
    };
    let points: Vec<String> = outcome
        .plan
        .test_points()
        .iter()
        .map(|tp| {
            format!(
                "{}@{}",
                tp.kind.mnemonic(),
                outcome.modified.node_name(tp.node)
            )
        })
        .collect();
    let coverage: Vec<String> = outcome
        .rounds
        .iter()
        .map(|r| format!("{:016x}", r.coverage.to_bits()))
        .collect();
    let evaluated = engine
        .registry()
        .counter("search.candidates_evaluated")
        .get();
    let stopped = outcome
        .interrupted
        .map_or_else(|| "none".to_string(), |reason| format!("{reason:?}"));
    format!(
        "[{}] cost={:#018x} coverage=[{}] stopped={stopped} evaluated={evaluated}",
        points.join(" "),
        outcome.plan.cost().to_bits(),
        coverage.join(" "),
    )
}

fn actual_lines() -> Vec<(String, String)> {
    const CPT: DetectionMode = DetectionMode::CriticalPathTracing;
    const EXPLICIT: DetectionMode = DetectionMode::Explicit;
    let run_name = |detection: DetectionMode, threads: usize| {
        let mode = if detection == CPT { "cpt" } else { "explicit" };
        format!("{mode}_t{threads}")
    };
    let mut out = Vec::new();

    // Seeded DAGs: reconvergent fanout, so DP groups and single-point
    // candidates compete and the referee's tie rule shows. The last one
    // has 600 nodes, where the auto block width steps from 4 to 8 words.
    let all = [(CPT, 1), (EXPLICIT, 1), (CPT, 2), (EXPLICIT, 2)];
    let dags: [(usize, usize, u64, f64, &[Run]); 5] = [
        (12, 60, 1, -8.0, &all),
        (16, 120, 2, -10.0, &all),
        (20, 200, 3, -10.0, &[(CPT, 1), (EXPLICIT, 2)]),
        (30, 400, 4, -10.0, &[(CPT, 1), (EXPLICIT, 2)]),
        (40, 560, 5, -10.0, &[(CPT, 1), (EXPLICIT, 1), (CPT, 2)]),
    ];
    for (inputs, gates, seed, exp, runs) in dags {
        let circuit = dag(inputs, gates, seed);
        for &(detection, threads) in runs {
            out.push((
                format!(
                    "dag_i{inputs}_g{gates}_s{seed}_d{exp}/{}",
                    run_name(detection, threads)
                ),
                line(&circuit, exp, detection, threads, None),
            ));
        }
    }

    let circuit = dag_with_points();
    for (detection, threads) in [(CPT, 1), (EXPLICIT, 2)] {
        out.push((
            format!(
                "dag_i16_g100_s6_points_d-10/{}",
                run_name(detection, threads)
            ),
            line(&circuit, -10.0, detection, threads, None),
        ));
    }

    // A work budget runs out part-way through the search: the plan is
    // the prefix committed before the cut.
    out.push((
        "dag_i20_g200_s3_d-10/cpt_t1_budget1000000".to_string(),
        line(&dag(20, 200, 3), -10.0, CPT, 1, Some(1_000_000)),
    ));
    out
}

#[rustfmt::skip]
const GOLDEN: &[(&str, &str)] = &[
    ("dag_i12_g60_s1_d-8/cpt_t1", "[cp-or@g22 cp-and@g12 cp-and@g11 op@g7 cp-and@g9 cp-or@g16 op@g50 op@g26 op@g31 op@g34 cp-and@g32 cp-or@g7 cp-or@tp_cp82 op@g43 op@g44 op@g48 cp-and@g14 cp-or@g18] cost=0x402c000000000000 coverage=[3fe4b1152c454b11 3feab4eead3bab4f 3feb8c82e320b8c8 3feca1af286bca1b 3fecc07b301ecc08 3fecfe133f84cfe1 3fed79435e50d794 3fed980f6603d981 3fedb6db6db6db6e 3fedf4737d1cdf47 3fee133f84cfe134 3fee50d79435e50d 3fee6fa39be8e6fa 3fef286bca1af287 3fef4737d1cdf473 3fef84cfe133f84d 3fefa39be8e6fa3a 3fefc267f099fc26 3fefe133f84cfe13] stopped=none evaluated=291"),
    ("dag_i12_g60_s1_d-8/explicit_t1", "[cp-or@g22 cp-and@g12 cp-and@g11 op@g7 cp-and@g9 cp-or@g16 op@g50 op@g26 op@g31 op@g34 cp-and@g32 cp-or@g7 cp-or@tp_cp82 op@g43 op@g44 op@g48 cp-and@g14 cp-or@g18] cost=0x402c000000000000 coverage=[3fe4b1152c454b11 3feab4eead3bab4f 3feb8c82e320b8c8 3feca1af286bca1b 3fecc07b301ecc08 3fecfe133f84cfe1 3fed79435e50d794 3fed980f6603d981 3fedb6db6db6db6e 3fedf4737d1cdf47 3fee133f84cfe134 3fee50d79435e50d 3fee6fa39be8e6fa 3fef286bca1af287 3fef4737d1cdf473 3fef84cfe133f84d 3fefa39be8e6fa3a 3fefc267f099fc26 3fefe133f84cfe13] stopped=none evaluated=291"),
    ("dag_i12_g60_s1_d-8/cpt_t2", "[cp-or@g22 cp-and@g12 cp-and@g11 op@g7 cp-and@g9 cp-or@g16 op@g50 op@g26 op@g31 op@g34 cp-and@g32 cp-or@g7 cp-or@tp_cp82 op@g43 op@g44 op@g48 cp-and@g14 cp-or@g18] cost=0x402c000000000000 coverage=[3fe4b1152c454b11 3feab4eead3bab4f 3feb8c82e320b8c8 3feca1af286bca1b 3fecc07b301ecc08 3fecfe133f84cfe1 3fed79435e50d794 3fed980f6603d981 3fedb6db6db6db6e 3fedf4737d1cdf47 3fee133f84cfe134 3fee50d79435e50d 3fee6fa39be8e6fa 3fef286bca1af287 3fef4737d1cdf473 3fef84cfe133f84d 3fefa39be8e6fa3a 3fefc267f099fc26 3fefe133f84cfe13] stopped=none evaluated=291"),
    ("dag_i12_g60_s1_d-8/explicit_t2", "[cp-or@g22 cp-and@g12 cp-and@g11 op@g7 cp-and@g9 cp-or@g16 op@g50 op@g26 op@g31 op@g34 cp-and@g32 cp-or@g7 cp-or@tp_cp82 op@g43 op@g44 op@g48 cp-and@g14 cp-or@g18] cost=0x402c000000000000 coverage=[3fe4b1152c454b11 3feab4eead3bab4f 3feb8c82e320b8c8 3feca1af286bca1b 3fecc07b301ecc08 3fecfe133f84cfe1 3fed79435e50d794 3fed980f6603d981 3fedb6db6db6db6e 3fedf4737d1cdf47 3fee133f84cfe134 3fee50d79435e50d 3fee6fa39be8e6fa 3fef286bca1af287 3fef4737d1cdf473 3fef84cfe133f84d 3fefa39be8e6fa3a 3fefc267f099fc26 3fefe133f84cfe13] stopped=none evaluated=291"),
    ("dag_i16_g120_s2_d-10/cpt_t1", "[op@g113 op@g95 op@g21 cp-and@g26 cp-or@g98 cp-or@g5 op@g96 op@x8 cp-and@g18 cp-or@g17 op@g6 cp-and@g20 op@g75 op@g28 cp-or@g33 cp-or@g46 tp@g62 tp@g75 cp-or@g12 cp-or@g38 op@g74 cp-and@g61 cp-and@g84 cp-or@g27] cost=0x4034800000000000 coverage=[3fe7a86846e889a5 3fe8d4b99cefd64a 3fe9dfac9412c515 3fea3318814dafb5 3feb5f69d754fc5a 3febe4e352e673bf 3fec59ad9f05bc38 3fec8bbb2d5c48fe 3fecad198c40a6d8 3fed1134a8edc064 3fed64a09628ab04 3fed754fc59ad9f0 3fedc8bbb2d5c490 3fedd96ae247f37d 3fedea1a11ba2269 3fee0b78709e8043 3fee2cd6cf82de1c 3feeb2504b145582 3feed3aea9f8b35b 3feee45dd96ae248 3fef166b67c16f0e 3fef271a97339dfb 3fef4878f617fbd4 3fef69d754fc59ae] stopped=none evaluated=449"),
    ("dag_i16_g120_s2_d-10/explicit_t1", "[op@g113 op@g95 op@g21 cp-and@g26 cp-or@g98 cp-or@g5 op@g96 op@x8 cp-and@g18 cp-or@g17 op@g6 cp-and@g20 op@g75 op@g28 cp-or@g33 cp-or@g46 tp@g62 tp@g75 cp-or@g12 cp-or@g38 op@g74 cp-and@g61 cp-and@g84 cp-or@g27] cost=0x4034800000000000 coverage=[3fe7a86846e889a5 3fe8d4b99cefd64a 3fe9dfac9412c515 3fea3318814dafb5 3feb5f69d754fc5a 3febe4e352e673bf 3fec59ad9f05bc38 3fec8bbb2d5c48fe 3fecad198c40a6d8 3fed1134a8edc064 3fed64a09628ab04 3fed754fc59ad9f0 3fedc8bbb2d5c490 3fedd96ae247f37d 3fedea1a11ba2269 3fee0b78709e8043 3fee2cd6cf82de1c 3feeb2504b145582 3feed3aea9f8b35b 3feee45dd96ae248 3fef166b67c16f0e 3fef271a97339dfb 3fef4878f617fbd4 3fef69d754fc59ae] stopped=none evaluated=449"),
    ("dag_i16_g120_s2_d-10/cpt_t2", "[op@g113 op@g95 op@g21 cp-and@g26 cp-or@g98 cp-or@g5 op@g96 op@x8 cp-and@g18 cp-or@g17 op@g6 cp-and@g20 op@g75 op@g28 cp-or@g33 cp-or@g46 tp@g62 tp@g75 cp-or@g12 cp-or@g38 op@g74 cp-and@g61 cp-and@g84 cp-or@g27] cost=0x4034800000000000 coverage=[3fe7a86846e889a5 3fe8d4b99cefd64a 3fe9dfac9412c515 3fea3318814dafb5 3feb5f69d754fc5a 3febe4e352e673bf 3fec59ad9f05bc38 3fec8bbb2d5c48fe 3fecad198c40a6d8 3fed1134a8edc064 3fed64a09628ab04 3fed754fc59ad9f0 3fedc8bbb2d5c490 3fedd96ae247f37d 3fedea1a11ba2269 3fee0b78709e8043 3fee2cd6cf82de1c 3feeb2504b145582 3feed3aea9f8b35b 3feee45dd96ae248 3fef166b67c16f0e 3fef271a97339dfb 3fef4878f617fbd4 3fef69d754fc59ae] stopped=none evaluated=449"),
    ("dag_i16_g120_s2_d-10/explicit_t2", "[op@g113 op@g95 op@g21 cp-and@g26 cp-or@g98 cp-or@g5 op@g96 op@x8 cp-and@g18 cp-or@g17 op@g6 cp-and@g20 op@g75 op@g28 cp-or@g33 cp-or@g46 tp@g62 tp@g75 cp-or@g12 cp-or@g38 op@g74 cp-and@g61 cp-and@g84 cp-or@g27] cost=0x4034800000000000 coverage=[3fe7a86846e889a5 3fe8d4b99cefd64a 3fe9dfac9412c515 3fea3318814dafb5 3feb5f69d754fc5a 3febe4e352e673bf 3fec59ad9f05bc38 3fec8bbb2d5c48fe 3fecad198c40a6d8 3fed1134a8edc064 3fed64a09628ab04 3fed754fc59ad9f0 3fedc8bbb2d5c490 3fedd96ae247f37d 3fedea1a11ba2269 3fee0b78709e8043 3fee2cd6cf82de1c 3feeb2504b145582 3feed3aea9f8b35b 3feee45dd96ae248 3fef166b67c16f0e 3fef271a97339dfb 3fef4878f617fbd4 3fef69d754fc59ae] stopped=none evaluated=449"),
    ("dag_i20_g200_s3_d-10/cpt_t1", "[cp-or@g3 cp-or@g45 cp-and@g25 op@g145 op@g196 tp@g20 op@g172 op@g36 op@g132 op@g140 op@g148 cp-or@g17 op@g160 op@g170 op@g197 cp-and@g19 cp-and@g35 cp-or@g53 cp-and@g102 cp-and@g86 op@g88 op@g75 op@g87 op@g100 cp-or@g21 cp-and@g77 cp-and@g82 op@g102] cost=0x4035000000000000 coverage=[3fea1923dee37cc8 3feb183869774324 3fec03add5b0e68e 3fecb445e6dc211d 3fecef2341ea89f7 3fed20310dcbe157 3fed9fbb5315c486 3fedda98ae242d60 3fee01d6ead87347 3fee15760932963a 3fee3cb445e6dc21 3fee4683d513ed9b 3fee5a22f36e108e 3fee6dc211c83382 3fee816130225675 3feebc3e8b30bf4f 3feeed4c571216b0 3feef71be63f282a 3fef148a93c65c97 3fef2829b2207f8a 3fef31f9414d9104 3fef31f9414d9104 3fef76a62b890b58 3fef9414d9103fc5] stopped=none evaluated=466"),
    ("dag_i20_g200_s3_d-10/explicit_t2", "[cp-or@g3 cp-or@g45 cp-and@g25 op@g145 op@g196 tp@g20 op@g172 op@g36 op@g132 op@g140 op@g148 cp-or@g17 op@g160 op@g170 op@g197 cp-and@g19 cp-and@g35 cp-or@g53 cp-and@g102 cp-and@g86 op@g88 op@g75 op@g87 op@g100 cp-or@g21 cp-and@g77 cp-and@g82 op@g102] cost=0x4035000000000000 coverage=[3fea1923dee37cc8 3feb183869774324 3fec03add5b0e68e 3fecb445e6dc211d 3fecef2341ea89f7 3fed20310dcbe157 3fed9fbb5315c486 3fedda98ae242d60 3fee01d6ead87347 3fee15760932963a 3fee3cb445e6dc21 3fee4683d513ed9b 3fee5a22f36e108e 3fee6dc211c83382 3fee816130225675 3feebc3e8b30bf4f 3feeed4c571216b0 3feef71be63f282a 3fef148a93c65c97 3fef2829b2207f8a 3fef31f9414d9104 3fef31f9414d9104 3fef76a62b890b58 3fef9414d9103fc5] stopped=none evaluated=466"),
    ("dag_i30_g400_s4_d-10/cpt_t1", "[op@g390 cp-and@g73 cp-or@g88 op@g204 op@g271 cp-or@g31 op@g332 op@g394 cp-or@g274 cp-and@g30 cp-and@g17 op@g75 op@g298 tp@g312 op@g239 op@g145 cp-or@g268 cp-and@g15 cp-or@g6 cp-or@g2 cp-and@g157 cp-or@g13 op@g40 cp-and@g7 cp-or@g9 cp-or@g20] cost=0x4035800000000000 coverage=[3fe6de423e879584 3fe74644b87e4c26 3fe908fa1e560e3d 3fe9b653944693f7 3fe9fbaa9040630f 3fea1e560e3d4a9a 3fec984cc4e01db8 3fecbaf842dd0543 3fecd8afd36ca729 3fed141ef48beaf3 3fed8afd36ca7289 3fed9eccec7f8922 3fedb29ca2349fbb 3fedda3c0d9eccec 3fedf2ffb0c1292c 3fee0bc353e3856b 3fee1f9309989c04 3fee3362bf4db29d 3fee3856acbaf843 3fee423e8795838f 3fee511a4fdd5482 3fee5ff618252575 3fee73c5cdda3c0e 3fee7dada8b4c75a] stopped=none evaluated=591"),
    ("dag_i30_g400_s4_d-10/explicit_t2", "[op@g390 cp-and@g73 cp-or@g88 op@g204 op@g271 cp-or@g31 op@g332 op@g394 cp-or@g274 cp-and@g30 cp-and@g17 op@g75 op@g298 tp@g312 op@g239 op@g145 cp-or@g268 cp-and@g15 cp-or@g6 cp-or@g2 cp-and@g157 cp-or@g13 op@g40 cp-and@g7 cp-or@g9 cp-or@g20] cost=0x4035800000000000 coverage=[3fe6de423e879584 3fe74644b87e4c26 3fe908fa1e560e3d 3fe9b653944693f7 3fe9fbaa9040630f 3fea1e560e3d4a9a 3fec984cc4e01db8 3fecbaf842dd0543 3fecd8afd36ca729 3fed141ef48beaf3 3fed8afd36ca7289 3fed9eccec7f8922 3fedb29ca2349fbb 3fedda3c0d9eccec 3fedf2ffb0c1292c 3fee0bc353e3856b 3fee1f9309989c04 3fee3362bf4db29d 3fee3856acbaf843 3fee423e8795838f 3fee511a4fdd5482 3fee5ff618252575 3fee73c5cdda3c0e 3fee7dada8b4c75a] stopped=none evaluated=591"),
    ("dag_i40_g560_s5_d-10/cpt_t1", "[cp-or@g195 op@g468 op@g232 cp-or@g41 cp-and@g344 op@g190 op@g364 op@g314 op@g313 op@g476 op@g437 op@g217 cp-or@g310 op@g368 cp-and@g14 cp-or@g219 op@g64 cp-or@g169 cp-or@g277 op@g375 op@g207 op@g558 op@tp_cp612 op@g227 op@g322 op@g122] cost=0x4031000000000000 coverage=[3fea384b0ebe5319 3feaf5b968fdc422 3feb15e44cd83cc3 3feb3d352a717add 3feb6bac01c97e70 3fec1e61656ac743 3fec37664f867a6a 3fec49453fe36819 3fec5eb72d1fb884 3fec70961d7ca633 3feca29ff1b40c82 3fecb0ebe5319775 3fecd4a9c5eb72d2 3fece2f5b968fdc4 3fecfbfaa384b0ec 3fed3197749b79f8 3fed3c506b39a22e 3fed4e2f5b968fdc 3fed600e4bf37d8b 3fed6e5a3f71087d 3fed7580392fcdf6 3fed7ca632ee936f 3fed83cc2cad58e8 3fed95ab1d0a4697] stopped=none evaluated=672"),
    ("dag_i40_g560_s5_d-10/explicit_t1", "[cp-or@g195 op@g468 op@g232 cp-or@g41 cp-and@g344 op@g190 op@g364 op@g314 op@g313 op@g476 op@g437 op@g217 cp-or@g310 op@g368 cp-and@g14 cp-or@g219 op@g64 cp-or@g169 cp-or@g277 op@g375 op@g207 op@g558 op@tp_cp612 op@g227 op@g322 op@g122] cost=0x4031000000000000 coverage=[3fea384b0ebe5319 3feaf5b968fdc422 3feb15e44cd83cc3 3feb3d352a717add 3feb6bac01c97e70 3fec1e61656ac743 3fec37664f867a6a 3fec49453fe36819 3fec5eb72d1fb884 3fec70961d7ca633 3feca29ff1b40c82 3fecb0ebe5319775 3fecd4a9c5eb72d2 3fece2f5b968fdc4 3fecfbfaa384b0ec 3fed3197749b79f8 3fed3c506b39a22e 3fed4e2f5b968fdc 3fed600e4bf37d8b 3fed6e5a3f71087d 3fed7580392fcdf6 3fed7ca632ee936f 3fed83cc2cad58e8 3fed95ab1d0a4697] stopped=none evaluated=672"),
    ("dag_i40_g560_s5_d-10/cpt_t2", "[cp-or@g195 op@g468 op@g232 cp-or@g41 cp-and@g344 op@g190 op@g364 op@g314 op@g313 op@g476 op@g437 op@g217 cp-or@g310 op@g368 cp-and@g14 cp-or@g219 op@g64 cp-or@g169 cp-or@g277 op@g375 op@g207 op@g558 op@tp_cp612 op@g227 op@g322 op@g122] cost=0x4031000000000000 coverage=[3fea384b0ebe5319 3feaf5b968fdc422 3feb15e44cd83cc3 3feb3d352a717add 3feb6bac01c97e70 3fec1e61656ac743 3fec37664f867a6a 3fec49453fe36819 3fec5eb72d1fb884 3fec70961d7ca633 3feca29ff1b40c82 3fecb0ebe5319775 3fecd4a9c5eb72d2 3fece2f5b968fdc4 3fecfbfaa384b0ec 3fed3197749b79f8 3fed3c506b39a22e 3fed4e2f5b968fdc 3fed600e4bf37d8b 3fed6e5a3f71087d 3fed7580392fcdf6 3fed7ca632ee936f 3fed83cc2cad58e8 3fed95ab1d0a4697] stopped=none evaluated=672"),
    ("dag_i16_g100_s6_points_d-10/cpt_t1", "[op@g80 cp-or@g3 op@g88 op@x4 op@tp_r118 op@g70 cp-or@g1 op@g31 op@tp_cp118 op@g68 op@g6 op@g67 op@g75 cp-or@g67 op@g45 op@g50 op@g76 cp-and@g39 op@g82 op@g83 op@g86 op@g93 cp-or@g90 op@g94] cost=0x402d000000000000 coverage=[3fea35a35a35a35a 3feb94b94b94b94c 3fec30c30c30c30c 3fec6b46b46b46b4 3fec924924924925 3fecb94b94b94b95 3fece04e04e04e05 3fed075075075075 3fed2e52e52e52e5 3fed7c57c57c57c5 3feda35a35a35a36 3fedb6db6db6db6e 3fedca5ca5ca5ca6 3fedddddddddddde 3fee04e04e04e04e 3fee186186186186 3fee2be2be2be2be 3fee3f63f63f63f6 3fee8d68d68d68d7 3feedb6db6db6db7 3fef507507507507 3fef63f63f63f63f 3fef9e79e79e79e8 3fefc57c57c57c58] stopped=none evaluated=387"),
    ("dag_i16_g100_s6_points_d-10/explicit_t2", "[op@g80 cp-or@g3 op@g88 op@x4 op@tp_r118 op@g70 cp-or@g1 op@g31 op@tp_cp118 op@g68 op@g6 op@g67 op@g75 cp-or@g67 op@g45 op@g50 op@g76 cp-and@g39 op@g82 op@g83 op@g86 op@g93 cp-or@g90 op@g94] cost=0x402d000000000000 coverage=[3fea35a35a35a35a 3feb94b94b94b94c 3fec30c30c30c30c 3fec6b46b46b46b4 3fec924924924925 3fecb94b94b94b95 3fece04e04e04e05 3fed075075075075 3fed2e52e52e52e5 3fed7c57c57c57c5 3feda35a35a35a36 3fedb6db6db6db6e 3fedca5ca5ca5ca6 3fedddddddddddde 3fee04e04e04e04e 3fee186186186186 3fee2be2be2be2be 3fee3f63f63f63f6 3fee8d68d68d68d7 3feedb6db6db6db7 3fef507507507507 3fef63f63f63f63f 3fef9e79e79e79e8 3fefc57c57c57c58] stopped=none evaluated=387"),
    ("dag_i20_g200_s3_d-10/cpt_t1_budget1000000", "[cp-or@g3 cp-or@g45 cp-and@g25 op@g145 op@g196 tp@g20 op@g172 op@g36 op@g132 op@g140 op@g148 cp-or@g17 op@g160 op@g170 op@g197 cp-and@g19 cp-and@g35 cp-or@g53 cp-and@g102 cp-and@g86 op@g88 op@g75 op@g87 op@g100 cp-or@g21 cp-and@g77] cost=0x4033800000000000 coverage=[3fea1923dee37cc8 3feb183869774324 3fec03add5b0e68e 3fecb445e6dc211d 3fecef2341ea89f7 3fed20310dcbe157 3fed9fbb5315c486 3fedda98ae242d60 3fee01d6ead87347 3fee15760932963a 3fee3cb445e6dc21 3fee4683d513ed9b 3fee5a22f36e108e 3fee6dc211c83382 3fee816130225675 3feebc3e8b30bf4f 3feeed4c571216b0 3feef71be63f282a 3fef148a93c65c97 3fef2829b2207f8a 3fef31f9414d9104 3fef31f9414d9104 3fef76a62b890b58] stopped=BudgetExhausted evaluated=450"),
];

#[test]
fn constructive_plans_match_the_recorded_golden_table() {
    let actual = actual_lines();
    let expected: Vec<(String, String)> = GOLDEN
        .iter()
        .map(|&(k, v)| (k.to_string(), v.to_string()))
        .collect();
    if actual != expected {
        let table: Vec<String> = actual
            .iter()
            .map(|(k, v)| format!("    ({k:?}, {v:?}),"))
            .collect();
        let differing: Vec<&str> = actual
            .iter()
            .filter(|(k, v)| !expected.iter().any(|(ek, ev)| ek == k && ev == v))
            .map(|(k, _)| k.as_str())
            .collect();
        panic!(
            "constructive output differs from the golden table in {} case(s): {differing:?}\n\
             actual table:\n{}",
            differing.len(),
            table.join("\n")
        );
    }
}
