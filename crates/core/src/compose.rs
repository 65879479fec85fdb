//! Multi-level hierarchies via timing-model composition (the paper's
//! footnote 4: "the analysis described here can be extended to circuits
//! with multi-level hierarchies").
//!
//! A composite module's timing abstraction is computed *from its
//! children's abstractions*, without flattening: the min–max algebra of
//! timing models composes exactly. If instance input `j` carries the
//! symbolic tuple set `S_j` (over the composite's inputs) and the
//! instance output has model tuples `T`, then the output's symbolic set
//! is
//!
//! ```text
//! { (max_j (s_k + t_j))_k  :  t ∈ T,  s ∈ S_j chosen per input j }
//! ```
//!
//! — a max-plus product, pruned of dominated tuples. Characterizing a
//! module therefore costs leaf characterizations plus cheap tuple
//! algebra, and the result is conservative at every level (each leaf
//! tuple is validated; composition preserves the min–max semantics
//! exactly).

use std::collections::HashMap;
use std::sync::Arc;

use hfta_fta::{AnalysisConfig, ModuleTiming};
use hfta_netlist::{Composite, Design, ModuleBody, NetlistError, Time};
use hfta_sched::Scheduler;

use crate::hier::{propagate, split_config, HierAnalysis};
use crate::{TimingModel, TimingTuple};

/// The composition caps of recursive characterization. Leaf modules
/// are characterized under an [`AnalysisConfig`], passed alongside.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ComposeOptions {
    /// Cap on tuples kept per composed model (non-dominated tuples are
    /// ranked by total finite delay; dropping tuples loses accuracy,
    /// never soundness).
    pub max_tuples: usize,
    /// Cap on the max-plus product size per output before falling back
    /// to first-tuple-only composition (sound, less accurate).
    pub max_product: usize,
}

impl Default for ComposeOptions {
    fn default() -> ComposeOptions {
        ComposeOptions {
            max_tuples: 8,
            max_product: 4096,
        }
    }
}

/// Recursively characterizes `module` (leaf or composite) into a
/// [`ModuleTiming`] over its own ports, caching by module name. Leaves
/// are characterized under `config`; composites are composed under
/// `opts`.
///
/// # Errors
///
/// Returns [`NetlistError::Unknown`] for missing modules and the usual
/// characterization errors.
pub fn characterize_recursive(
    design: &Design,
    module: &str,
    config: &AnalysisConfig,
    opts: &ComposeOptions,
    cache: &mut HashMap<String, ModuleTiming>,
) -> Result<ModuleTiming, NetlistError> {
    if let Some(m) = cache.get(module) {
        return Ok(m.clone());
    }
    let def = design.module(module).ok_or_else(|| NetlistError::Unknown {
        what: "module",
        name: module.to_string(),
    })?;
    let timing = match &def.body {
        ModuleBody::Leaf(nl) => ModuleTiming::characterize(nl, config)?,
        ModuleBody::Composite(c) => {
            for idx in c.instance_topo_order()? {
                let inst = &c.instances()[idx];
                characterize_recursive(design, &inst.module, config, opts, cache)?;
            }
            compose_composite(c, opts, cache)?
        }
    };
    cache.insert(module.to_string(), timing.clone());
    Ok(timing)
}

/// Composes a composite's timing abstraction from its children's
/// already-characterized models (the max-plus tuple product of the
/// module doc). Unlike [`characterize_recursive`] this never descends:
/// every instanced module must already be in `models`.
///
/// # Errors
///
/// Returns [`NetlistError::Unknown`] if a child model is missing and
/// composite-ordering errors.
fn compose_composite(
    c: &Composite,
    opts: &ComposeOptions,
    models: &HashMap<String, ModuleTiming>,
) -> Result<ModuleTiming, NetlistError> {
    // Symbolic tuple set per composite net, over the composite's
    // inputs.
    let n_in = c.inputs().len();
    let mut sets: Vec<Vec<TimingTuple>> = vec![Vec::new(); c.net_count()];
    for (k, &pi) in c.inputs().iter().enumerate() {
        let mut unit = vec![Time::NEG_INF; n_in];
        unit[k] = Time::ZERO;
        sets[pi.index()] = vec![TimingTuple::new(unit)];
    }
    for idx in c.instance_topo_order()? {
        let inst = &c.instances()[idx];
        let child = models
            .get(&inst.module)
            .ok_or_else(|| NetlistError::Unknown {
                what: "child timing model",
                name: inst.module.clone(),
            })?;
        for (o, &out_net) in inst.outputs.iter().enumerate() {
            let input_sets: Vec<&[TimingTuple]> = inst
                .inputs
                .iter()
                .map(|n| sets[n.index()].as_slice())
                .collect();
            sets[out_net.index()] = compose_output(child.model(o), &input_sets, n_in, opts);
        }
    }
    let input_names = c
        .inputs()
        .iter()
        .map(|&n| c.net_name(n).to_string())
        .collect();
    let output_names: Vec<String> = c
        .outputs()
        .iter()
        .map(|&n| c.net_name(n).to_string())
        .collect();
    let models: Vec<TimingModel> = c
        .outputs()
        .iter()
        .map(|&n| {
            let tuples = if sets[n.index()].is_empty() {
                // Undriven output: constant, nothing required.
                vec![TimingTuple::new(vec![Time::NEG_INF; n_in])]
            } else {
                sets[n.index()].clone()
            };
            TimingModel::from_tuples(tuples)
        })
        .collect();
    Ok(ModuleTiming::from_parts(
        c.name(),
        input_names,
        output_names,
        models,
    ))
}

/// Max-plus product of one output model with its input tuple sets.
fn compose_output(
    model: &TimingModel,
    input_sets: &[&[TimingTuple]],
    n_in: usize,
    opts: &ComposeOptions,
) -> Vec<TimingTuple> {
    let mut out: Vec<TimingTuple> = Vec::new();
    for t in model.tuples() {
        // Relevant inputs: those the model actually depends on.
        let relevant: Vec<usize> = (0..input_sets.len())
            .filter(|&j| t.delay(j) != Time::NEG_INF)
            .collect();
        // Product size check.
        let mut product: usize = 1;
        for &j in &relevant {
            product = product.saturating_mul(input_sets[j].len().max(1));
        }
        let restrict_to_first = product > opts.max_product;
        let mut choice = vec![0usize; relevant.len()];
        loop {
            // Build the composed tuple for this choice.
            let mut combined = vec![Time::NEG_INF; n_in];
            for (pos, &j) in relevant.iter().enumerate() {
                let set = input_sets[j];
                if set.is_empty() {
                    // Undriven input net: stable from forever —
                    // contributes nothing.
                    continue;
                }
                let s = &set[choice[pos]];
                #[allow(clippy::needless_range_loop)] // k indexes two parallel arrays
                for k in 0..n_in {
                    if s.delay(k) == Time::NEG_INF {
                        continue;
                    }
                    combined[k] = combined[k].max(s.delay(k) + t.delay(j));
                }
            }
            push_pruned(&mut out, TimingTuple::new(combined));
            // Odometer over the choices.
            if restrict_to_first {
                break;
            }
            let mut carry = 0usize;
            loop {
                if carry == relevant.len() {
                    break;
                }
                let limit = input_sets[relevant[carry]].len().max(1);
                choice[carry] += 1;
                if choice[carry] < limit {
                    break;
                }
                choice[carry] = 0;
                carry += 1;
            }
            if carry == relevant.len() {
                break;
            }
        }
    }
    if out.is_empty() {
        // The model ignores every input (constant output).
        out.push(TimingTuple::new(vec![Time::NEG_INF; n_in]));
    }
    truncate_ranked(out, opts.max_tuples)
}

fn push_pruned(set: &mut Vec<TimingTuple>, t: TimingTuple) {
    if set.iter().any(|k| k.dominates(&t)) {
        return;
    }
    set.retain(|k| !t.dominates(k));
    set.push(t);
}

/// Keeps at most `cap` tuples, ranked by total finite delay (smallest
/// first — the heuristically most useful tuples).
fn truncate_ranked(mut set: Vec<TimingTuple>, cap: usize) -> Vec<TimingTuple> {
    if set.len() > cap {
        set.sort_by_key(|t| t.delays().iter().filter_map(|d| d.finite()).sum::<i64>());
        set.truncate(cap);
    }
    set
}

/// Analyzes a design whose top-level composite may instantiate other
/// composites (arbitrary hierarchy depth), by recursive timing-model
/// composition followed by the usual top-level propagation.
///
/// Modules are characterized wavefront by wavefront over the module
/// dependency DAG — every leaf of a wavefront is an independent task,
/// so sibling subtrees characterize concurrently on the pool seated in
/// `config` (or, when none is seated and `config.threads > 1`, on a pool
/// created for this call) — and composite models are composed from
/// their children's models once the wave below them is done. Models
/// merge back in deterministic (sorted name) order, so the analysis is
/// bit-identical to the serial one.
///
/// # Errors
///
/// Returns module-resolution and characterization errors.
///
/// # Panics
///
/// Panics if `pi_arrivals.len()` differs from the top-level input
/// count.
pub fn analyze_multilevel(
    design: &Design,
    top: &str,
    pi_arrivals: &[Time],
    config: &AnalysisConfig,
    opts: &ComposeOptions,
) -> Result<HierAnalysis, NetlistError> {
    design.validate()?;
    let composite = design.composite(top).ok_or_else(|| NetlistError::Unknown {
        what: "top-level composite module",
        name: top.to_string(),
    })?;
    let (config, seated) = split_config(config);
    let pool = seated.or_else(|| {
        let effective = hfta_sched::effective_parallelism(config.threads, config.clamp_threads);
        (effective > 1).then(|| Scheduler::new(effective))
    });
    let mut cache = HashMap::new();
    characterize_wavefronts(design, composite, &config, opts, pool.as_ref(), &mut cache)?;
    let mut models = HashMap::new();
    for inst in composite.instances() {
        if !models.contains_key(&inst.module) {
            let m = cache
                .get(&inst.module)
                .ok_or_else(|| NetlistError::Unknown {
                    what: "module",
                    name: inst.module.clone(),
                })?;
            models.insert(inst.module.clone(), m.clone());
        }
    }
    propagate(composite, &models, pi_arrivals)
}

/// Characterizes every module reachable from `top`'s instances into
/// `cache`, layering the module dependency DAG into wavefronts: wave 0
/// holds the leaves, wave k the composites whose children all sit in
/// earlier waves. Within a wave, leaf characterizations (the expensive,
/// solver-bound work) run as independent tasks on `pool`; composites
/// (cheap tuple algebra over cached child models) compose serially.
fn characterize_wavefronts(
    design: &Design,
    top: &Composite,
    config: &Arc<AnalysisConfig>,
    opts: &ComposeOptions,
    pool: Option<&Scheduler>,
    cache: &mut HashMap<String, ModuleTiming>,
) -> Result<(), NetlistError> {
    // Reachable modules, indexed; deps point at instanced children.
    let mut index: HashMap<String, usize> = HashMap::new();
    let mut names: Vec<String> = Vec::new();
    let mut deps: Vec<Vec<usize>> = Vec::new();
    let mut queue: Vec<String> = Vec::new();
    for inst in top.instances() {
        if !index.contains_key(&inst.module) {
            index.insert(inst.module.clone(), names.len());
            names.push(inst.module.clone());
            deps.push(Vec::new());
            queue.push(inst.module.clone());
        }
    }
    while let Some(name) = queue.pop() {
        let def = design.module(&name).ok_or_else(|| NetlistError::Unknown {
            what: "module",
            name: name.clone(),
        })?;
        if let ModuleBody::Composite(c) = &def.body {
            let me = index[&name];
            for inst in c.instances() {
                let child = match index.get(&inst.module) {
                    Some(&i) => i,
                    None => {
                        let i = names.len();
                        index.insert(inst.module.clone(), i);
                        names.push(inst.module.clone());
                        deps.push(Vec::new());
                        queue.push(inst.module.clone());
                        i
                    }
                };
                deps[me].push(child);
            }
        }
    }
    for wave in hfta_sched::wavefronts(names.len(), |i| deps[i].clone()) {
        // Split the wave: leaves fan out, composites compose in place.
        let mut leaves: Vec<(String, hfta_netlist::Netlist)> = Vec::new();
        let mut composites: Vec<&str> = Vec::new();
        for &i in &wave {
            let name = names[i].as_str();
            if cache.contains_key(name) {
                continue;
            }
            match &design.module(name).expect("indexed above").body {
                ModuleBody::Leaf(nl) => leaves.push((name.to_string(), nl.clone())),
                ModuleBody::Composite(_) => composites.push(name),
            }
        }
        leaves.sort_by(|a, b| a.0.cmp(&b.0));
        let characterized: Vec<(String, Result<ModuleTiming, NetlistError>)> = match pool {
            Some(pool) if leaves.len() > 1 => {
                let config = Arc::clone(config);
                pool.run(leaves, move |(name, nl)| {
                    let r = ModuleTiming::characterize(&nl, &config);
                    (name, r)
                })
            }
            _ => leaves
                .into_iter()
                .map(|(name, nl)| {
                    let r = ModuleTiming::characterize(&nl, config);
                    (name, r)
                })
                .collect(),
        };
        for (name, result) in characterized {
            cache.insert(name, result?);
        }
        for name in composites {
            let def = design.module(name).expect("indexed above");
            let ModuleBody::Composite(c) = &def.body else {
                unreachable!("partitioned as composite above");
            };
            let timing = compose_composite(c, opts, cache)?;
            cache.insert(name.to_string(), timing);
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use hfta_fta::functional_circuit_delay;
    use hfta_fta::TopoSta;
    use hfta_netlist::gen::{carry_skip_adder, CsaDelays};
    use hfta_netlist::Composite;

    fn t(v: i64) -> Time {
        Time::new(v)
    }

    fn config() -> AnalysisConfig {
        AnalysisConfig::default()
    }

    /// Builds a 3-level design: block (leaf) → csa8.2 (composite of 4
    /// blocks) → pair16 (two csa8.2 in cascade).
    fn three_level_design() -> Design {
        let mut design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut top = Composite::new("pair16");
        let c_in = top.add_input("c_in");
        let mut lo_inputs = vec![c_in];
        let mut hi_inputs = Vec::new();
        for i in 0..16 {
            let a = top.add_input(format!("a{i}"));
            let b = top.add_input(format!("b{i}"));
            if i < 8 {
                lo_inputs.push(a);
                lo_inputs.push(b);
            } else {
                hi_inputs.push(a);
                hi_inputs.push(b);
            }
        }
        let mut lo_outputs = Vec::new();
        for i in 0..8 {
            lo_outputs.push(top.add_net(format!("s{i}")));
        }
        let mid_carry = top.add_net("c8");
        lo_outputs.push(mid_carry);
        let mut hi_outputs = Vec::new();
        for i in 8..16 {
            hi_outputs.push(top.add_net(format!("s{i}")));
        }
        let final_carry = top.add_net("c16");
        hi_outputs.push(final_carry);
        top.add_instance("lo", "csa8.2", &lo_inputs, &lo_outputs);
        let mut hi_in = vec![mid_carry];
        hi_in.extend(hi_inputs);
        top.add_instance("hi", "csa8.2", &hi_in, &hi_outputs);
        for &s in lo_outputs[..8].iter().chain(&hi_outputs) {
            top.mark_output(s);
        }
        design.add_composite(top).unwrap();
        design
    }

    #[test]
    fn composite_model_matches_direct_analysis() {
        // The composed model of csa8.2 evaluated at all-zero arrivals
        // must equal the two-step hierarchical analysis of csa8.2.
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut cache = HashMap::new();
        let timing = characterize_recursive(
            &design,
            "csa8.2",
            &config(),
            &ComposeOptions::default(),
            &mut cache,
        )
        .unwrap();
        assert_eq!(timing.input_names().len(), 17);
        assert_eq!(timing.output_names().len(), 9);
        let times = timing.output_stable_times(&[t(0); 17]);
        // Final carry: 2·4 + 6 = 14.
        assert_eq!(*times.last().unwrap(), t(14));
        // Last sum bit: carry-in of block 4 at 12, +4 = 16.
        assert_eq!(times[7], t(16));
    }

    #[test]
    fn three_level_conservative_and_tight() {
        let design = three_level_design();
        let arrivals = vec![t(0); 33];
        let analysis = analyze_multilevel(
            &design,
            "pair16",
            &arrivals,
            &config(),
            &ComposeOptions::default(),
        )
        .unwrap();
        let flat = design.flatten("pair16").unwrap();
        let exact = functional_circuit_delay(&flat).unwrap();
        let sta = TopoSta::new(&flat).unwrap();
        let topo = sta.circuit_delay(&vec![t(0); 33]);
        assert!(analysis.delay >= exact, "{} < {}", analysis.delay, exact);
        assert!(analysis.delay <= topo);
        // On this regular structure composition stays exact.
        assert_eq!(analysis.delay, exact);
        // 16-bit cascade of 2-bit blocks: last sum at 2·8 + 8 = 24.
        assert_eq!(exact, t(24));
    }

    #[test]
    fn composed_carry_model_keeps_false_path() {
        // The c_in → c16 effective delay through two composed csa8.2
        // models is 2 + 2·4 = 10? No: c_in of the low adder passes one
        // mux per block: the composed model of csa8.2 has
        // c_in → c8 = 2 + 2 + 2 + 2 = 8? The per-block false path
        // gives c_in → c_out = 2 per block, so 4 blocks compose to 8.
        let design = carry_skip_adder(8, 2, CsaDelays::default());
        let mut cache = HashMap::new();
        let timing = characterize_recursive(
            &design,
            "csa8.2",
            &config(),
            &ComposeOptions::default(),
            &mut cache,
        )
        .unwrap();
        let carry_model = timing.model(8);
        let min_cin_delay = carry_model
            .tuples()
            .iter()
            .map(|tp| tp.delay(0))
            .min()
            .unwrap();
        assert_eq!(min_cin_delay, t(8), "2 per block × 4 blocks");
    }

    /// Wavefront-parallel characterization is bit-identical to the
    /// serial recursion — on an explicit pool and on the auto-pool
    /// taken from the thread options.
    #[test]
    fn wavefront_parallel_matches_serial() {
        let design = three_level_design();
        let arrivals = vec![t(0); 33];
        let opts = ComposeOptions::default();
        let serial = analyze_multilevel(&design, "pair16", &arrivals, &config(), &opts).unwrap();

        let seated = config().with_scheduler(Scheduler::new(4));
        let parallel = analyze_multilevel(&design, "pair16", &arrivals, &seated, &opts).unwrap();
        assert_eq!(serial, parallel);

        let threaded = config().with_threads(4).with_thread_clamp(false);
        let auto = analyze_multilevel(&design, "pair16", &arrivals, &threaded, &opts).unwrap();
        assert_eq!(serial, auto);
    }

    #[test]
    fn tuple_cap_is_sound() {
        let design = three_level_design();
        let arrivals = vec![t(0); 33];
        let tight = ComposeOptions {
            max_tuples: 1,
            ..ComposeOptions::default()
        };
        let analysis = analyze_multilevel(&design, "pair16", &arrivals, &config(), &tight).unwrap();
        let flat = design.flatten("pair16").unwrap();
        let exact = functional_circuit_delay(&flat).unwrap();
        assert!(analysis.delay >= exact, "cap must stay conservative");
    }
}
