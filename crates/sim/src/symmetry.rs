//! Process-symmetry reduction for the exhaustive explorer.
//!
//! Many protocols treat process identities generically: renaming the
//! processes by a permutation π (and renaming every pid-derived datum —
//! decisions, announced names, owned symbols — consistently) maps legal
//! runs to legal runs. The explorer then only needs to visit one
//! representative per *orbit* of global states under the protocol's
//! symmetry group: up to `n!` states collapse into one.
//!
//! A protocol opts in by implementing [`SymmetricProtocol`], declaring
//! its group of pid permutations and how a permutation acts on local
//! states and values. The engine handles the global-state action
//! itself (reindexing the per-process vectors, the `stepped` bitmap,
//! and the shared memory — including per-process snapshot slots).
//!
//! **Soundness contract.** For every declared permutation π the
//! protocol must be *equivariant*: stepping process `p` from state `s`
//! and then applying π must give the same global state as applying π
//! first and then stepping `π(p)`. This holds exactly when
//! `next_action`/`on_response` commute with the renaming, which the
//! implementor must ensure (the engine validates the cheap algebraic
//! prerequisites: each element is a permutation, the set is closed
//! under composition, and the exploration inputs are fixed by the
//! renaming). Counterexample schedules remain genuinely replayable:
//! the engine always expands a *concrete* reachable representative of
//! each orbit, never an abstract canonical form.
//!
//! **Composition with partial-order reduction.** Symmetry composes
//! with [`crate::Explorer::dpor`]: persistent sets are a function of
//! the stored (representative) state alone, so whichever concrete
//! orbit member arrives first, the reduction decisions over the
//! quotient graph are well-defined. Sleep-set masks are indexed by
//! pid, so when a dedup hit lands on a representative reached under a
//! different permutation the arriving mask is translated through the
//! composed pid map before being intersected with the stored one (see
//! `engine::rep_map` and DESIGN.md §3.11).

use std::collections::HashSet;

use bso_objects::{spec::ObjectState, Sym, Value};

use crate::explore::StateKey;
use crate::{Pid, Protocol, SharedMemory};

/// A [`Protocol`] whose transition relation is invariant under a group
/// of process permutations.
///
/// See the module docs for the equivariance contract. Implementing
/// this trait unlocks [`crate::Explorer::symmetric`].
pub trait SymmetricProtocol: Protocol {
    /// The pid permutations under which the protocol is equivariant.
    ///
    /// Element `perm` maps process `p` to `perm[p]`. The identity is
    /// implied and need not be listed; the returned set plus the
    /// identity must be closed under composition (a group). Returning
    /// an empty vector degrades gracefully to no reduction.
    fn symmetry_group(&self) -> Vec<Vec<Pid>>;

    /// The action of `perm` on one process's local state.
    ///
    /// This renames pid-derived data *inside* the state; the engine
    /// itself moves the state from index `p` to index `perm[p]`.
    fn permute_state(&self, perm: &[Pid], state: &Self::State) -> Self::State;

    /// The action of `perm` on a shared-memory or decision value.
    ///
    /// The default renames `Value::Pid` payloads (recursively through
    /// pairs and sequences) and leaves everything else alone. Override
    /// when other data encodes process identities — e.g. a protocol
    /// whose process `p` owns symbol `p` must also rename symbols.
    fn permute_value(&self, perm: &[Pid], v: &Value) -> Value {
        permute_pids_in_value(perm, v)
    }
}

/// Renames every `Value::Pid(p)` with `p < perm.len()` to
/// `Value::Pid(perm[p])`, recursing through pairs and sequences.
pub fn permute_pids_in_value(perm: &[Pid], v: &Value) -> Value {
    match v {
        Value::Pid(p) if *p < perm.len() => Value::Pid(perm[*p]),
        Value::Pair(a, b) => Value::Pair(
            Box::new(permute_pids_in_value(perm, a)),
            Box::new(permute_pids_in_value(perm, b)),
        ),
        Value::Seq(xs) => Value::Seq(xs.iter().map(|x| permute_pids_in_value(perm, x)).collect()),
        other => other.clone(),
    }
}

/// Checks that `raw` (plus the identity) is a permutation group on
/// `0..n` and returns its non-identity elements, deduplicated.
pub(crate) fn validated_group(n: usize, raw: Vec<Vec<Pid>>) -> Result<Vec<Vec<Pid>>, String> {
    let identity: Vec<Pid> = (0..n).collect();
    let mut set: HashSet<Vec<Pid>> = HashSet::new();
    set.insert(identity.clone());
    for perm in raw {
        if perm.len() != n {
            return Err(format!(
                "symmetry element {perm:?} is not a permutation of 0..{n}"
            ));
        }
        let mut seen = vec![false; n];
        for &q in &perm {
            if q >= n || seen[q] {
                return Err(format!(
                    "symmetry element {perm:?} is not a permutation of 0..{n}"
                ));
            }
            seen[q] = true;
        }
        set.insert(perm);
    }
    for a in &set {
        for b in &set {
            let composed: Vec<Pid> = (0..n).map(|p| a[b[p]]).collect();
            if !set.contains(&composed) {
                return Err(format!(
                    "symmetry set is not closed under composition: {a:?} ∘ {b:?} = \
                     {composed:?} is missing"
                ));
            }
        }
    }
    set.remove(&identity);
    let mut elems: Vec<Vec<Pid>> = set.into_iter().collect();
    elems.sort();
    Ok(elems)
}

/// A canonicalization result: the orbit-minimal form of a state and
/// the pid permutation mapping the state's coordinates to canonical
/// coordinates — or `None` when the state is already canonical.
pub(crate) type Canonical<S> = Option<(StateKey<S>, Box<[Pid]>)>;

/// How the engine maps each generated successor to the key it
/// deduplicates on. The non-reducing case is a free no-op; the
/// symmetric case picks the orbit minimum.
pub(crate) trait Canonicalizer<P: Protocol> {
    /// Returns the canonical (orbit-minimal) form of `key` and the pid
    /// permutation mapping `key`'s coordinates to canonical
    /// coordinates — or `None` when `key` is already canonical.
    fn canonicalize(&self, key: &StateKey<P::State>) -> Canonical<P::State>;
}

/// A borrowed canonicalizer: lets a second engine pass over the same
/// run share the first pass's canonicalizer.
impl<P: Protocol, C: Canonicalizer<P>> Canonicalizer<P> for &C {
    fn canonicalize(&self, key: &StateKey<P::State>) -> Canonical<P::State> {
        (**self).canonicalize(key)
    }
}

/// The trivial canonicalizer: every state is its own representative.
pub(crate) struct NoCanon;

impl<P: Protocol> Canonicalizer<P> for NoCanon {
    fn canonicalize(&self, _key: &StateKey<P::State>) -> Canonical<P::State> {
        None
    }
}

/// Orbit-minimum canonicalization under a validated symmetry group.
pub(crate) struct SymCanon<'p, P: SymmetricProtocol> {
    proto: &'p P,
    /// Non-identity group elements.
    elems: Vec<Vec<Pid>>,
}

impl<'p, P: SymmetricProtocol> SymCanon<'p, P> {
    /// Validates the protocol's declared group.
    ///
    /// # Errors
    ///
    /// Any element that is not a permutation of `0..n`, or a set not
    /// closed under composition, is rejected with a description.
    pub(crate) fn new(proto: &'p P) -> Result<SymCanon<'p, P>, String> {
        let elems = validated_group(proto.processes(), proto.symmetry_group())?;
        Ok(SymCanon { proto, elems })
    }

    /// The validated non-identity elements.
    pub(crate) fn elements(&self) -> &[Vec<Pid>] {
        &self.elems
    }

    /// Applies the global-state action of `perm` to `key`.
    fn apply(&self, perm: &[Pid], key: &StateKey<P::State>) -> StateKey<P::State>
    where
        P::State: Clone,
    {
        let n = perm.len();
        debug_assert_eq!(key.states.len(), n);
        let mut states: Vec<P::State> = key.states.clone();
        let mut decisions: Vec<Option<Value>> = vec![None; n];
        let mut stepped = 0u64;
        let mut crashed = 0u64;
        let mut steps = key.steps.clone();
        for p in 0..n {
            let q = perm[p];
            states[q] = self.proto.permute_state(perm, &key.states[p]);
            decisions[q] = key.decisions[p]
                .as_ref()
                .map(|v| self.proto.permute_value(perm, v));
            if key.stepped >> p & 1 == 1 {
                stepped |= 1 << q;
            }
            if key.crashed >> p & 1 == 1 {
                crashed |= 1 << q;
            }
            if !steps.is_empty() {
                steps[q] = key.steps[p];
            }
        }
        let mem = self.apply_memory(perm, &key.mem);
        StateKey {
            mem,
            states,
            decisions,
            stepped,
            crashed,
            steps,
        }
    }

    fn apply_memory(&self, perm: &[Pid], mem: &SharedMemory) -> SharedMemory {
        let pv = |v: &Value| self.proto.permute_value(perm, v);
        let psym = |s: Sym| -> Sym {
            match pv(&Value::Sym(s)) {
                Value::Sym(t) => t,
                other => panic!("permute_value must map symbols to symbols, got {other:?}"),
            }
        };
        let objects = mem
            .objects()
            .iter()
            .map(|obj| match obj {
                ObjectState::Register { val } => ObjectState::Register { val: pv(val) },
                ObjectState::CasK { val, k } => ObjectState::CasK {
                    val: psym(*val),
                    k: *k,
                },
                ObjectState::CasReg { val } => ObjectState::CasReg { val: pv(val) },
                ObjectState::TestAndSet { set } => ObjectState::TestAndSet { set: *set },
                ObjectState::FetchAdd { val } => ObjectState::FetchAdd { val: *val },
                ObjectState::Snapshot { slots } => {
                    // Slot `i` is owned by process `i`, so the slots
                    // move with the processes.
                    assert_eq!(
                        slots.len(),
                        perm.len(),
                        "symmetry reduction requires per-process snapshot slots"
                    );
                    let mut moved: Vec<Value> = slots.clone();
                    for (i, slot) in slots.iter().enumerate() {
                        moved[perm[i]] = pv(slot);
                    }
                    ObjectState::Snapshot { slots: moved }
                }
                ObjectState::Sticky { val } => ObjectState::Sticky { val: pv(val) },
                ObjectState::Queue { items } => ObjectState::Queue {
                    items: items.iter().map(pv).collect(),
                },
                ObjectState::RmwK { val, k, functions } => ObjectState::RmwK {
                    val: psym(*val),
                    k: *k,
                    functions: functions.clone(),
                },
            })
            .collect();
        SharedMemory::from_objects(objects)
    }
}

impl<P: SymmetricProtocol> Canonicalizer<P> for SymCanon<'_, P>
where
    P::State: Clone + Ord,
{
    fn canonicalize(&self, key: &StateKey<P::State>) -> Canonical<P::State> {
        let mut best: Option<(StateKey<P::State>, &[Pid])> = None;
        for perm in &self.elems {
            let cand = self.apply(perm, key);
            let beats_key = cand < *key;
            let beats_best = best.as_ref().is_none_or(|(b, _)| cand < *b);
            if beats_key && beats_best {
                best = Some((cand, perm));
            }
        }
        best.map(|(cand, perm)| (cand, perm.to_vec().into_boxed_slice()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn group_validation_accepts_s3_and_rejects_non_groups() {
        // Full S₃ (identity omitted).
        let s3 = vec![
            vec![0, 2, 1],
            vec![1, 0, 2],
            vec![1, 2, 0],
            vec![2, 0, 1],
            vec![2, 1, 0],
        ];
        let elems = validated_group(3, s3).unwrap();
        assert_eq!(elems.len(), 5);

        // A lone 3-cycle is not closed (its square is missing).
        let err = validated_group(3, vec![vec![1, 2, 0]]).unwrap_err();
        assert!(err.contains("not closed"), "{err}");

        // Not a permutation.
        assert!(validated_group(3, vec![vec![0, 0, 1]]).is_err());
        assert!(validated_group(3, vec![vec![0, 1]]).is_err());

        // The empty set (identity only) is a group.
        assert!(validated_group(3, Vec::new()).unwrap().is_empty());
    }

    #[test]
    fn pid_renaming_recurses_through_structures() {
        let perm = vec![1usize, 0];
        let v = Value::Pair(
            Box::new(Value::Pid(0)),
            Box::new(Value::Seq(vec![Value::Pid(1), Value::Int(7)])),
        );
        let w = permute_pids_in_value(&perm, &v);
        assert_eq!(
            w,
            Value::Pair(
                Box::new(Value::Pid(1)),
                Box::new(Value::Seq(vec![Value::Pid(0), Value::Int(7)])),
            )
        );
        // Out-of-range pids (foreign data) are left alone.
        assert_eq!(permute_pids_in_value(&perm, &Value::Pid(9)), Value::Pid(9));
    }
}
