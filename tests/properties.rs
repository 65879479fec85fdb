//! Cross-crate property-based tests on the core invariants.

use hfta::netlist::gen::{random_circuit, GateMix, RandomCircuitSpec};
use hfta::netlist::partition::cascade_bipartition;
use hfta::netlist::{cone_signature, sim};
use hfta::{
    AnalysisConfig, DelayAnalyzer, DemandDrivenAnalyzer, GateKind, Netlist, StabilityAnalyzer,
    Time, TopoSta,
};
use hfta_testkit::{from_fn_with_shrink, prop, Rng, Strategy};

/// Random flat circuits; shrinking reduces gate and input counts so a
/// failing invariant pins to a minimal netlist.
fn spec_strategy() -> impl Strategy<Value = RandomCircuitSpec> {
    from_fn_with_shrink(
        |rng: &mut Rng| RandomCircuitSpec {
            inputs: rng.gen_range(2usize..8),
            gates: rng.gen_range(5usize..40),
            seed: rng.next_u64(),
            locality: rng.gen_range(4usize..12),
            global_fanin_prob: 0.2,
            mix: if rng.next_bool() {
                GateMix::XorHeavy
            } else {
                GateMix::NandHeavy
            },
        },
        |spec: &RandomCircuitSpec| {
            let mut out = Vec::new();
            if spec.gates > 5 {
                out.push(RandomCircuitSpec {
                    gates: 5.max(spec.gates / 2),
                    ..*spec
                });
                out.push(RandomCircuitSpec {
                    gates: spec.gates - 1,
                    ..*spec
                });
            }
            if spec.inputs > 2 {
                out.push(RandomCircuitSpec {
                    inputs: spec.inputs - 1,
                    ..*spec
                });
            }
            if spec.seed != 0 {
                out.push(RandomCircuitSpec { seed: 0, ..*spec });
            }
            out
        },
    )
}

// The functional delay never exceeds the topological delay and is
// realized at a time where the circuit is actually stable.
prop!(cases = 64, fn functional_delay_bounded_by_topological(spec in spec_strategy()) {
    let nl = random_circuit("p", spec);
    let arrivals = vec![Time::ZERO; nl.inputs().len()];
    let sta = TopoSta::new(&nl).expect("acyclic");
    let topo = sta.circuit_delay(&arrivals);
    let mut an = DelayAnalyzer::new_sat(&nl, &arrivals).expect("acyclic");
    let functional = an.circuit_delay();
    assert!(functional <= topo);
    // Every output must be stable at the functional circuit delay.
    let mut stab = StabilityAnalyzer::new(&nl, &arrivals, hfta::fta::SatAlg::new())
        .expect("acyclic");
    for &o in nl.outputs() {
        assert!(stab.is_stable_at(o, functional));
    }
});

// Stability is monotone in time (monotone speedup property).
prop!(cases = 64, fn stability_monotone(spec in spec_strategy()) {
    let nl = random_circuit("p", spec);
    let arrivals = vec![Time::ZERO; nl.inputs().len()];
    let out = nl.outputs()[0];
    let mut stab = StabilityAnalyzer::new(&nl, &arrivals, hfta::fta::SatAlg::new())
        .expect("acyclic");
    let mut prev = false;
    for time in 0..=12 {
        let now = stab.is_stable_at(out, Time::new(time));
        assert!(!prev || now, "stability regressed at t={time}");
        prev = now;
    }
});

// Flattening a bipartitioned design preserves the Boolean functions
// (checked by exhaustive simulation).
prop!(cases = 64, fn partition_flatten_roundtrip(spec in spec_strategy()) {
    let flat = random_circuit("p", spec);
    if flat.gate_count() < 2 {
        return Ok(());
    }
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let reflat = design.flatten("p_top").expect("flattens");
    let n = flat.inputs().len();
    for v in 0u64..(1 << n) {
        let vector: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
        let a = sim::eval(&flat, &vector).expect("simulates");
        let mut vec2 = vec![false; reflat.inputs().len()];
        for (k, &pi) in reflat.inputs().iter().enumerate() {
            let name = reflat.net_name(pi);
            let idx = flat
                .inputs()
                .iter()
                .position(|&p| flat.net_name(p) == name)
                .expect("same inputs");
            vec2[k] = vector[idx];
        }
        let b = sim::eval(&reflat, &vec2).expect("simulates");
        for (k, &po) in reflat.outputs().iter().enumerate() {
            let name = reflat.net_name(po);
            let idx = flat
                .outputs()
                .iter()
                .position(|&p| flat.net_name(p) == name)
                .expect("same outputs");
            assert_eq!(b[k], a[idx], "output {name} vector {v}");
        }
    }
});

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A structural twin of `nl`: every net renamed, inputs declared in a
/// seed-driven permuted order, gates created in reverse order with
/// commutative inputs reversed. Returns the twin plus `input_pos`,
/// mapping each original input position to its position in the twin.
fn shuffled_copy(nl: &Netlist, seed: u64) -> (Netlist, Vec<usize>) {
    let n = nl.inputs().len();
    let mut state = seed;
    // Fisher–Yates: input_pos[i] = declared position of input i in the copy.
    let mut input_pos: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (splitmix(&mut state) % (i as u64 + 1)) as usize;
        input_pos.swap(i, j);
    }
    let mut by_new_pos = vec![0usize; n];
    for (i, &p) in input_pos.iter().enumerate() {
        by_new_pos[p] = i;
    }
    let mut copy = Netlist::new(format!("{}_twin", nl.name()));
    let mut map = vec![None; nl.net_count()];
    for &p in by_new_pos.iter() {
        let old = nl.inputs()[p];
        map[old.index()] = Some(copy.add_input(format!("pi{p}")));
    }
    for (idx, m) in map.iter_mut().enumerate() {
        if m.is_none() {
            *m = Some(copy.add_net(format!("n{idx}")));
        }
    }
    let mapped = |net: hfta::NetId| map[net.index()].expect("mapped");
    for gate in nl.gates().iter().rev() {
        let mut ins: Vec<hfta::NetId> = gate.inputs.iter().map(|&i| mapped(i)).collect();
        let commutative = matches!(
            gate.kind,
            GateKind::And
                | GateKind::Or
                | GateKind::Nand
                | GateKind::Nor
                | GateKind::Xor
                | GateKind::Xnor
        );
        if commutative {
            ins.reverse();
        }
        copy.add_gate(gate.kind, &ins, mapped(gate.output), gate.delay)
            .expect("twin gate");
    }
    for &o in nl.outputs() {
        copy.mark_output(mapped(o));
    }
    (copy, input_pos)
}

// Structural cone signatures are invariant under renaming, input
// permutation, gate creation order, and commutative input order — and
// the returned correspondences are function-preserving: driving both
// cones from the same canonical-slot vector yields identical outputs.
// (Exact slot numbers may differ between copies only for automorphic
// inputs, where either assignment is correct.)
prop!(cases = 48, fn cone_signature_invariant_under_isomorphism(spec in spec_strategy()) {
    let nl = random_circuit("p", spec);
    let out = nl.outputs()[0];
    let (cone, _) = nl.cone(out);
    let (twin, _) = shuffled_copy(&cone, spec.seed ^ 0x5bd1_e995);
    let ka = cone_signature(&cone).expect("acyclic");
    let kb = cone_signature(&twin).expect("acyclic");
    assert_eq!(ka.sig, kb.sig, "isomorphic cones got different signatures");
    assert_eq!(ka.slot_count(), kb.slot_count());
    let n = ka.slot_count();
    for v in 0u64..(1 << n) {
        let slots: Vec<bool> = (0..n).map(|i| (v >> i) & 1 == 1).collect();
        let a = sim::eval(&cone, &ka.from_slots(&slots)).expect("simulates");
        let b = sim::eval(&twin, &kb.from_slots(&slots)).expect("simulates");
        assert_eq!(a, b, "correspondence is not function-preserving at slot vector {v}");
    }
});

// Changing the cone — here, the root gate's delay — changes the
// signature: equal signatures really do mean interchangeable timing.
prop!(cases = 48, fn cone_signature_distinguishes_modified_cones(spec in spec_strategy()) {
    let nl = random_circuit("p", spec);
    let out = nl.outputs()[0];
    let (cone, _) = nl.cone(out);
    if cone.gates().is_empty() {
        return Ok(());
    }
    let root = cone.outputs()[0];
    let mut bumped = Netlist::new("bumped");
    let mut map = vec![None; cone.net_count()];
    for (p, &pi) in cone.inputs().iter().enumerate() {
        map[pi.index()] = Some(bumped.add_input(format!("pi{p}")));
    }
    for (idx, m) in map.iter_mut().enumerate() {
        if m.is_none() {
            *m = Some(bumped.add_net(format!("n{idx}")));
        }
    }
    for gate in cone.gates() {
        let ins: Vec<hfta::NetId> = gate
            .inputs
            .iter()
            .map(|&i| map[i.index()].expect("mapped"))
            .collect();
        let delay = if gate.output == root { gate.delay + 1 } else { gate.delay };
        bumped
            .add_gate(gate.kind, &ins, map[gate.output.index()].expect("mapped"), delay)
            .expect("bumped gate");
    }
    bumped.mark_output(map[root.index()].expect("mapped"));
    let ka = cone_signature(&cone).expect("acyclic");
    let kb = cone_signature(&bumped).expect("acyclic");
    assert_ne!(ka.sig, kb.sig, "delay change was invisible to the signature");
});

// Characterizing through a shared signature cache is bit-identical to
// fresh characterization, for the original cone and any structural
// twin of it.
prop!(cases = 16, fn signature_shared_characterization_is_bit_identical(spec in spec_strategy()) {
    use hfta::fta::{characterize_module, ConeSigCache};
    let nl = random_circuit("p", spec);
    let out = nl.outputs()[0];
    let (cone, _) = nl.cone(out);
    let (twin, _) = shuffled_copy(&cone, spec.seed ^ 0xc2b2_ae35);
    let config = AnalysisConfig::default();
    let fresh_cone = characterize_module(&cone, &config).expect("characterizes");
    let fresh_twin = characterize_module(&twin, &config).expect("characterizes");

    let mut cache = ConeSigCache::new();
    let (shared_cone, _, _) =
        hfta::fta::characterize_module_cached(&cone, &config, &mut cache).expect("characterizes");
    let (shared_twin, _, _) =
        hfta::fta::characterize_module_cached(&twin, &config, &mut cache).expect("characterizes");
    assert_eq!(shared_cone, fresh_cone, "cache changed the original's models");
    assert_eq!(shared_twin, fresh_twin, "sharing changed the twin's models");
});

// Theorem 1 on random partitioned circuits, demand-driven.
prop!(cases = 64, fn demand_driven_conservative(spec in spec_strategy()) {
    let flat = random_circuit("p", spec);
    if flat.gate_count() < 2 {
        return Ok(());
    }
    let arrivals = vec![Time::ZERO; flat.inputs().len()];
    let mut an = DelayAnalyzer::new_sat(&flat, &arrivals).expect("acyclic");
    let exact = an.circuit_delay();
    let sta = TopoSta::new(&flat).expect("acyclic");
    let topo = sta.circuit_delay(&arrivals);

    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let mut dd = DemandDrivenAnalyzer::with_config(&design, "p_top", &AnalysisConfig::default())
        .expect("valid");
    let est = dd.analyze(&arrivals).expect("analyzes").delay;
    assert!(est >= exact, "optimistic: {est} < {exact}");
    assert!(est <= topo, "worse than topological: {est} > {topo}");
});

// A model stored to disk and probed back by a cold handle is
// bit-identical to the in-memory characterization: the record survives
// serialize -> checksum -> deserialize -> name rebinding unchanged.
prop!(cases = 32, fn model_db_round_trip_is_bit_identical(spec in spec_strategy()) {
    let nl = random_circuit("p", spec);
    let config = AnalysisConfig::default();
    let source = config.source;
    let fresh = hfta::ModuleTiming::characterize(&nl, &config).expect("acyclic");

    let dir = std::env::temp_dir().join(format!(
        "hfta-prop-modeldb-{}-{:x}",
        std::process::id(),
        spec.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);
    {
        let mut db = hfta::ModelDb::open(&dir).expect("create db");
        assert!(db.store(&nl, source, &config, &fresh, false), "store refused");
    }
    // A separate handle — nothing shared in memory with the writer.
    let mut cold = hfta::ModelDb::open_read_only(&dir);
    let probed = cold.probe(&nl, source, &config).expect("stored record must hit");
    assert_eq!(probed, fresh, "disk round trip changed the model");
    assert_eq!(cold.stats().hits, 1);
    assert_eq!(cold.stats().invalidations, 0);
    let _ = std::fs::remove_dir_all(&dir);
});

// Warm-starting a hierarchical analysis from a persistent database is
// bit-identical to the cold run that seeded it, with zero
// characterizations.
prop!(cases = 16, fn warm_start_analysis_is_bit_identical(spec in spec_strategy()) {
    use hfta::HierAnalyzer;

    let flat = random_circuit("p", spec);
    if flat.gate_count() < 2 {
        return Ok(());
    }
    let design = cascade_bipartition(&flat, 0.5).expect("partitions");
    let arrivals = vec![Time::ZERO; flat.inputs().len()];

    let dir = std::env::temp_dir().join(format!(
        "hfta-prop-warmstart-{}-{:x}",
        std::process::id(),
        spec.seed
    ));
    let _ = std::fs::remove_dir_all(&dir);

    let config = AnalysisConfig::default().with_emit_models(&dir);
    let mut cold = HierAnalyzer::with_config(&design, "p_top", &config).expect("valid");
    let c = cold.analyze(&arrivals).expect("analyzes");

    let config = AnalysisConfig::default().with_use_models(&dir);
    let mut warm = HierAnalyzer::with_config(&design, "p_top", &config).expect("valid");
    let w = warm.analyze(&arrivals).expect("analyzes");

    assert_eq!(w.stats.modules_characterized, 0, "warm start characterized");
    assert_eq!(w.delay, c.delay);
    assert_eq!(w.output_arrivals, c.output_arrivals);
    assert_eq!(w.net_arrivals, c.net_arrivals);
    assert_eq!(
        warm.model_db_stats().hits,
        c.stats.modules_characterized,
        "every module served from disk"
    );
    let _ = std::fs::remove_dir_all(&dir);
});
