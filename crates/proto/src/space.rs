//! `ProtoSpace`: the product state space of a CFSM system as a
//! [`si_petri::space::StateSpace`], so the shared explorer (and its
//! budgets, witnesses and partial verdicts) runs protocol deadlock
//! detection unchanged.
//!
//! A product state packs, into `u64` words, each module's local control
//! state (a bit field sized to the module's state count, never straddling
//! a word boundary) and one pending-message bit per buffered/async
//! channel (rendezvous channels are stateless). The **global actions**
//! are enumerated once, in canonical order, as the space's labels:
//!
//! * `tau` moves and buffered sends/receives are one module's transition
//!   (a buffered send fills the channel slot and blocks while it is
//!   full; an `async` send instead reports an
//!   [`ProtoViolation::Overflow`] when the slot is full);
//! * a rendezvous send and each matching receive of the peer module fuse
//!   into a single combined label.
//!
//! Violations are judged per state by `inspect`:
//!
//! * [`ProtoViolation::Deadlock`] — no global action is enabled, yet a
//!   send is pending (some module sits in a state with an outgoing send,
//!   or a channel slot is full);
//! * [`ProtoViolation::DanglingSend`] — a channel slot is full but the
//!   receiver, from its current local state, cannot even *locally* reach
//!   a receive on that channel (a sound over-approximation: if the local
//!   control graph has no path to a receive, no global schedule has one);
//! * [`ProtoViolation::Overflow`] — an `async` send fired onto a full
//!   slot (reported on the edge; the overflowing send produces no
//!   successor, keeping the space finite).

use crate::model::{ActionKind, ChannelId, ChannelKind, ModuleId, ProtoSystem};
use si_fault::fail_point;
use si_petri::space::{SpaceVisitor, StateSpace, Verdict};
use std::fmt;

/// A protocol violation discovered in the product space.
///
/// Ordered (`Ord`) so violation lists can be sorted canonically,
/// independent of exploration order.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum ProtoViolation {
    /// No global action is enabled but a send is pending: some module's
    /// current state has an outgoing send, or a channel slot is full.
    Deadlock,
    /// The channel's slot is full and the receiver can never consume it.
    DanglingSend {
        /// The channel whose message is stuck.
        channel: ChannelId,
    },
    /// An `async` send fired while the channel's 1-bounded slot was
    /// already full.
    Overflow {
        /// The overflowed channel.
        channel: ChannelId,
        /// The sending module.
        module: ModuleId,
    },
}

impl ProtoViolation {
    /// Stable kind tag for JSON output (`deadlock` / `dangling-send` /
    /// `overflow`).
    pub fn kind(&self) -> &'static str {
        match self {
            ProtoViolation::Deadlock => "deadlock",
            ProtoViolation::DanglingSend { .. } => "dangling-send",
            ProtoViolation::Overflow { .. } => "overflow",
        }
    }

    /// Renders the violation with channel/module names from `sys`.
    pub fn render(&self, sys: &ProtoSystem) -> String {
        match *self {
            ProtoViolation::Deadlock => "deadlock: no action enabled, send pending".to_string(),
            ProtoViolation::DanglingSend { channel } => format!(
                "dangling send: message on {:?} can never be received by {:?}",
                sys.channel(channel).name,
                sys.module(sys.channel(channel).receiver).name
            ),
            ProtoViolation::Overflow { channel, module } => format!(
                "overflow: {:?} sent on {:?} while its 1-bounded slot was full",
                sys.module(module).name,
                sys.channel(channel).name
            ),
        }
    }
}

/// A decoded product state: per-module local states and per-channel
/// pending bits, in canonical (system) order. `Ord` so states sort
/// canonically by content, independent of interner ids.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct GlobalState {
    /// Local state of each module, indexed by [`ModuleId`].
    pub locals: Vec<u16>,
    /// Pending bit of each channel, indexed by [`ChannelId`]
    /// (always `false` for rendezvous channels).
    pub slots: Vec<bool>,
}

impl GlobalState {
    /// Renders `mod=state ... | chan=• ...` with names from `sys`
    /// (full slots only; `|` part omitted when no slot is full).
    pub fn render(&self, sys: &ProtoSystem) -> String {
        let mut s = String::new();
        for (m, &l) in sys.modules().iter().zip(&self.locals) {
            if !s.is_empty() {
                s.push(' ');
            }
            s.push_str(&m.name);
            s.push('=');
            s.push_str(m.state_name(l));
        }
        let full: Vec<&str> = sys
            .channels()
            .iter()
            .zip(&self.slots)
            .filter(|&(_, &f)| f)
            .map(|(c, _)| c.name.as_str())
            .collect();
        if !full.is_empty() {
            s.push_str(" | pending: ");
            s.push_str(&full.join(" "));
        }
        s
    }
}

/// Location of one packed bit field.
#[derive(Copy, Clone, Debug)]
struct Field {
    word: usize,
    shift: u32,
    mask: u64,
}

impl Field {
    #[inline]
    fn get(&self, state: &[u64]) -> u64 {
        (state[self.word] >> self.shift) & self.mask
    }

    #[inline]
    fn set(&self, state: &mut [u64], v: u64) {
        debug_assert_eq!(v & !self.mask, 0);
        state[self.word] = (state[self.word] & !(self.mask << self.shift)) | (v << self.shift);
    }
}

/// One global action (= one explorer label).
#[derive(Copy, Clone, Debug)]
enum Action {
    /// `module`: `from -tau-> to`.
    Internal { module: u32, from: u16, to: u16 },
    /// Buffered/async send: fills the channel slot.
    Send {
        module: u32,
        from: u16,
        to: u16,
        chan: u32,
    },
    /// Buffered/async receive: drains the channel slot.
    Recv {
        module: u32,
        from: u16,
        to: u16,
        chan: u32,
    },
    /// Rendezvous: sender and receiver step together.
    Sync {
        chan: u32,
        s_from: u16,
        s_to: u16,
        r_from: u16,
        r_to: u16,
    },
}

/// The product state space of one [`ProtoSystem`].
pub struct ProtoSpace<'a> {
    sys: &'a ProtoSystem,
    words: usize,
    /// Packed control-state field of each module.
    module_fields: Vec<Field>,
    /// Packed pending bit of each slotted channel (`None` for sync).
    slot_fields: Vec<Option<Field>>,
    /// Canonical global action table; index = explorer label.
    actions: Vec<Action>,
    /// Rendered name of each action, for witnesses and JSON.
    action_names: Vec<String>,
    /// `has_send[m]` bit `s`: local state `s` of module `m` has an
    /// outgoing send transition.
    has_send: Vec<Vec<u64>>,
    /// `can_receive[c]` (slotted channels only) bit `s`: from local state
    /// `s`, the channel's receiver can locally reach a receive on `c`.
    can_receive: Vec<Option<Vec<u64>>>,
}

#[inline]
fn bit(set: &[u64], i: u16) -> bool {
    set[i as usize / 64] >> (i as usize % 64) & 1 != 0
}

#[inline]
fn set_bit(set: &mut [u64], i: u16) {
    set[i as usize / 64] |= 1 << (i as usize % 64);
}

impl<'a> ProtoSpace<'a> {
    /// Builds the product space of `sys`.
    pub fn new(sys: &'a ProtoSystem) -> Self {
        // Pack module fields then channel slots; a field never straddles
        // a word boundary (module widths are ≤ 16 bits).
        let mut cursor = 0usize;
        let mut module_fields = Vec::with_capacity(sys.modules().len());
        for m in sys.modules() {
            let n = m.states.len() as u64;
            let width = if n <= 1 {
                1
            } else {
                64 - (n - 1).leading_zeros()
            };
            if cursor % 64 + width as usize > 64 {
                cursor = (cursor / 64 + 1) * 64;
            }
            module_fields.push(Field {
                word: cursor / 64,
                shift: (cursor % 64) as u32,
                mask: (1u64 << width) - 1,
            });
            cursor += width as usize;
        }
        let mut slot_fields = Vec::with_capacity(sys.channels().len());
        for c in sys.channels() {
            if c.kind.has_slot() {
                slot_fields.push(Some(Field {
                    word: cursor / 64,
                    shift: (cursor % 64) as u32,
                    mask: 1,
                }));
                cursor += 1;
            } else {
                slot_fields.push(None);
            }
        }
        let words = cursor.div_ceil(64).max(1);

        // Canonical action table: modules ascending, transitions in their
        // (already canonical) order; a rendezvous send pairs with each
        // receive transition of the peer, in the peer's order.
        let mut actions = Vec::new();
        for (mi, m) in sys.modules().iter().enumerate() {
            for t in &m.transitions {
                match t.action {
                    ActionKind::Internal => actions.push(Action::Internal {
                        module: mi as u32,
                        from: t.from,
                        to: t.to,
                    }),
                    ActionKind::Send(c) => {
                        let ch = sys.channel(c);
                        if ch.kind == ChannelKind::Rendezvous {
                            let peer = sys.module(ch.receiver);
                            for rt in &peer.transitions {
                                if rt.action == ActionKind::Receive(c) {
                                    actions.push(Action::Sync {
                                        chan: c.0,
                                        s_from: t.from,
                                        s_to: t.to,
                                        r_from: rt.from,
                                        r_to: rt.to,
                                    });
                                }
                            }
                        } else {
                            actions.push(Action::Send {
                                module: mi as u32,
                                from: t.from,
                                to: t.to,
                                chan: c.0,
                            });
                        }
                    }
                    ActionKind::Receive(c) => {
                        // Rendezvous receives are folded into the send side.
                        if sys.channel(c).kind.has_slot() {
                            actions.push(Action::Recv {
                                module: mi as u32,
                                from: t.from,
                                to: t.to,
                                chan: c.0,
                            });
                        }
                    }
                }
            }
        }
        let action_names = actions
            .iter()
            .map(|a| match *a {
                Action::Internal { module, from, to } => {
                    let m = &sys.modules()[module as usize];
                    format!(
                        "{}: {} -> {} : tau",
                        m.name,
                        m.state_name(from),
                        m.state_name(to)
                    )
                }
                Action::Send {
                    module,
                    from,
                    to,
                    chan,
                } => {
                    let m = &sys.modules()[module as usize];
                    format!(
                        "{}: {} -> {} : {}!",
                        m.name,
                        m.state_name(from),
                        m.state_name(to),
                        sys.channels()[chan as usize].name
                    )
                }
                Action::Recv {
                    module,
                    from,
                    to,
                    chan,
                } => {
                    let m = &sys.modules()[module as usize];
                    format!(
                        "{}: {} -> {} : {}?",
                        m.name,
                        m.state_name(from),
                        m.state_name(to),
                        sys.channels()[chan as usize].name
                    )
                }
                Action::Sync {
                    chan,
                    s_from,
                    s_to,
                    r_from,
                    r_to,
                } => {
                    let ch = &sys.channels()[chan as usize];
                    let s = sys.module(ch.sender);
                    let r = sys.module(ch.receiver);
                    format!(
                        "{}: {}.{} -> {} | {}.{} -> {}",
                        ch.name,
                        s.name,
                        s.state_name(s_from),
                        s.state_name(s_to),
                        r.name,
                        r.state_name(r_from),
                        r.state_name(r_to)
                    )
                }
            })
            .collect();

        // has_send[m]: local states with an outgoing send.
        let has_send = sys
            .modules()
            .iter()
            .map(|m| {
                let mut set = vec![0u64; m.states.len().div_ceil(64)];
                for t in &m.transitions {
                    if matches!(t.action, ActionKind::Send(_)) {
                        set_bit(&mut set, t.from);
                    }
                }
                set
            })
            .collect();

        // can_receive[c]: backward closure, in the receiver's local
        // control graph, of the sources of its receives on c.
        let can_receive = sys
            .channels()
            .iter()
            .enumerate()
            .map(|(ci, ch)| {
                if !ch.kind.has_slot() {
                    return None;
                }
                let m = sys.module(ch.receiver);
                let mut set = vec![0u64; m.states.len().div_ceil(64)];
                for t in &m.transitions {
                    if t.action == ActionKind::Receive(ChannelId(ci as u32)) {
                        set_bit(&mut set, t.from);
                    }
                }
                loop {
                    let mut grew = false;
                    for t in &m.transitions {
                        if bit(&set, t.to) && !bit(&set, t.from) {
                            set_bit(&mut set, t.from);
                            grew = true;
                        }
                    }
                    if !grew {
                        break Some(set);
                    }
                }
            })
            .collect();

        ProtoSpace {
            sys,
            words,
            module_fields,
            slot_fields,
            actions,
            action_names,
            has_send,
            can_receive,
        }
    }

    /// The system this space was built from.
    pub fn system(&self) -> &'a ProtoSystem {
        self.sys
    }

    /// Number of global actions (= explorer labels).
    pub fn action_count(&self) -> usize {
        self.actions.len()
    }

    /// Human-readable name of action `label`.
    ///
    /// # Panics
    ///
    /// If `label` is not a valid action index.
    pub fn action_name(&self, label: u32) -> &str {
        &self.action_names[label as usize]
    }

    #[inline]
    fn local(&self, state: &[u64], m: usize) -> u16 {
        self.module_fields[m].get(state) as u16
    }

    #[inline]
    fn slot(&self, state: &[u64], c: usize) -> bool {
        match &self.slot_fields[c] {
            Some(f) => f.get(state) != 0,
            None => false,
        }
    }

    /// Whether `action` is enabled at `state`. An `async` send counts as
    /// enabled whenever its source state does — firing onto a full slot
    /// is the overflow violation, not a blocked send.
    fn enabled(&self, state: &[u64], action: &Action) -> bool {
        match *action {
            Action::Internal { module, from, .. } => self.local(state, module as usize) == from,
            Action::Send {
                module, from, chan, ..
            } => {
                self.local(state, module as usize) == from
                    && (self.sys.channels()[chan as usize].kind == ChannelKind::Async
                        || !self.slot(state, chan as usize))
            }
            Action::Recv {
                module, from, chan, ..
            } => self.local(state, module as usize) == from && self.slot(state, chan as usize),
            Action::Sync {
                chan,
                s_from,
                r_from,
                ..
            } => {
                let ch = &self.sys.channels()[chan as usize];
                self.local(state, ch.sender.0 as usize) == s_from
                    && self.local(state, ch.receiver.0 as usize) == r_from
            }
        }
    }

    /// Applies `action` (assumed enabled) to `state` into `out`.
    /// Returns `false` for the async-overflow case: the violation is the
    /// caller's to report and there is no successor.
    fn apply(&self, state: &[u64], action: &Action, out: &mut [u64]) -> bool {
        out.copy_from_slice(state);
        match *action {
            Action::Internal { module, to, .. } => {
                self.module_fields[module as usize].set(out, to as u64);
            }
            Action::Send {
                module, to, chan, ..
            } => {
                if self.slot(state, chan as usize) {
                    return false; // async send onto a full slot: overflow
                }
                self.module_fields[module as usize].set(out, to as u64);
                self.slot_fields[chan as usize]
                    .as_ref()
                    .unwrap()
                    .set(out, 1);
            }
            Action::Recv {
                module, to, chan, ..
            } => {
                self.module_fields[module as usize].set(out, to as u64);
                self.slot_fields[chan as usize]
                    .as_ref()
                    .unwrap()
                    .set(out, 0);
            }
            Action::Sync {
                chan, s_to, r_to, ..
            } => {
                let ch = &self.sys.channels()[chan as usize];
                self.module_fields[ch.sender.0 as usize].set(out, s_to as u64);
                self.module_fields[ch.receiver.0 as usize].set(out, r_to as u64);
            }
        }
        true
    }

    /// Whether a send is pending at `state`: a full slot, or a module
    /// whose current local state has an outgoing send.
    fn send_pending(&self, state: &[u64]) -> bool {
        (0..self.sys.channels().len()).any(|c| self.slot(state, c))
            || (0..self.sys.modules().len()).any(|m| bit(&self.has_send[m], self.local(state, m)))
    }

    /// The violations `inspect` reports at `state` (deadlock, dangling
    /// sends), in canonical order.
    fn inspect_violations(&self, state: &[u64]) -> Vec<ProtoViolation> {
        let mut out = Vec::new();
        if !self.actions.iter().any(|a| self.enabled(state, a)) && self.send_pending(state) {
            out.push(ProtoViolation::Deadlock);
        }
        for (c, ch) in self.sys.channels().iter().enumerate() {
            if self.slot(state, c) {
                let can = self.can_receive[c].as_ref().unwrap();
                if !bit(can, self.local(state, ch.receiver.0 as usize)) {
                    out.push(ProtoViolation::DanglingSend {
                        channel: ChannelId(c as u32),
                    });
                }
            }
        }
        out
    }

    /// Every violation observable at `state`: the per-state ones
    /// (`inspect`'s deadlock / dangling sends) plus the overflows that
    /// expanding the state would report on its outgoing edges — for
    /// tests and witness rendering.
    pub fn violations_at(&self, state: &[u64]) -> Vec<ProtoViolation> {
        let mut out = self.inspect_violations(state);
        for action in &self.actions {
            if let Action::Send { module, chan, .. } = *action {
                if self.enabled(state, action) && self.slot(state, chan as usize) {
                    out.push(ProtoViolation::Overflow {
                        channel: ChannelId(chan),
                        module: ModuleId(module),
                    });
                }
            }
        }
        out.dedup();
        out
    }

    /// The enabled action labels at `state`, ascending.
    pub fn enabled_actions(&self, state: &[u64]) -> Vec<u32> {
        self.actions
            .iter()
            .enumerate()
            .filter(|(_, a)| self.enabled(state, a))
            .map(|(i, _)| i as u32)
            .collect()
    }

    /// Decodes a packed state.
    pub fn decode(&self, state: &[u64]) -> GlobalState {
        GlobalState {
            locals: (0..self.sys.modules().len())
                .map(|m| self.local(state, m))
                .collect(),
            slots: (0..self.sys.channels().len())
                .map(|c| self.slot(state, c))
                .collect(),
        }
    }

    /// Replays an action-label sequence from the initial state; `None` if
    /// some label is invalid or not enabled where it fires (an async
    /// overflow is not a move, so it also replays to `None`).
    pub fn replay(&self, labels: &[u32]) -> Option<Vec<u64>> {
        let mut cur = self.initial();
        let mut next = vec![0u64; self.words];
        for &l in labels {
            let action = self.actions.get(l as usize)?;
            if !self.enabled(&cur, action) || !self.apply(&cur, action, &mut next) {
                return None;
            }
            std::mem::swap(&mut cur, &mut next);
        }
        Some(cur)
    }
}

impl fmt::Debug for ProtoSpace<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProtoSpace({:?}, {} words, {} actions)",
            self.sys.name(),
            self.words,
            self.actions.len()
        )
    }
}

impl StateSpace for ProtoSpace<'_> {
    type Violation = ProtoViolation;

    fn words(&self) -> usize {
        self.words
    }

    fn initial(&self) -> Vec<u64> {
        // Canonical renumbering puts every module's initial state at
        // local id 0, and all slots start empty.
        vec![0u64; self.words]
    }

    fn inspect<Vis: SpaceVisitor<ProtoViolation>>(&self, state: &[u64], sink: &mut Vis) -> Verdict {
        let vs = self.inspect_violations(state);
        if vs.is_empty() {
            return Verdict::Continue;
        }
        for v in vs {
            sink.violation(v);
        }
        Verdict::Violation
    }

    fn for_each_successor<Vis: SpaceVisitor<ProtoViolation>>(
        &self,
        state: &[u64],
        scratch: &mut [u64],
        visit: &mut Vis,
    ) -> Result<(), ProtoViolation> {
        fail_point!("proto::step", state[0]);
        for (label, action) in self.actions.iter().enumerate() {
            if !self.enabled(state, action) {
                continue;
            }
            if self.apply(state, action, scratch) {
                if !visit.successor(label as u32, scratch) {
                    return Ok(());
                }
            } else if let Action::Send { module, chan, .. } = *action {
                visit.violation(ProtoViolation::Overflow {
                    channel: ChannelId(chan),
                    module: ModuleId(module),
                });
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_proto;
    use si_petri::space::{explore, ExploreOptions};

    fn space_of(text: &str) -> (ProtoSystem, usize) {
        let sys = parse_proto(text).unwrap();
        let n = {
            let space = ProtoSpace::new(&sys);
            let e = explore(&space, ExploreOptions::with_cap(100_000)).unwrap();
            e.states
        };
        (sys, n)
    }

    #[test]
    fn rendezvous_handshake_has_four_states() {
        // client: idle -req!-> waiting -ack?-> idle
        // server: idle -req?-> busy -ack!-> idle
        let text = "\
.channel req sync
.channel ack buf
.module client
idle -> waiting : req!
waiting -> idle : ack?
.module server
idle -> busy : req?
busy -> idle : ack!
";
        // (idle,idle,–) → (waiting,busy,–) → (waiting,idle,ack) → back.
        let (sys, n) = space_of(text);
        assert_eq!(n, 3);
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e.violations.is_empty());
    }

    #[test]
    fn buffered_send_blocks_and_async_overflows() {
        let blocked = "\
.channel c buf
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> x : c?
";
        // tx can only re-send after rx drains: no overflow possible,
        // and every send is eventually consumable — no violations.
        let sys = parse_proto(blocked).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e.violations.is_empty());

        let overflow = "\
.channel c async
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> x : c?
";
        let sys = parse_proto(overflow).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e
            .violations
            .iter()
            .any(|(_, v)| matches!(v, ProtoViolation::Overflow { .. })));
    }

    #[test]
    fn dangling_send_and_deadlock_are_flagged() {
        // rx consumes once then absorbs in y; the second pending message
        // dangles and tx blocks forever → dangling send + deadlock.
        let text = "\
.channel c buf
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> y : c?
y -> y : tau
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000).witness()).unwrap();
        let kinds: Vec<&str> = e.violations.iter().map(|(_, v)| v.kind()).collect();
        assert!(kinds.contains(&"dangling-send"), "kinds: {kinds:?}");
        // No deadlock here: rx's tau self-loop keeps an action enabled
        // forever. Check the witness instead: the dangling state replays.
        let (gid, _) = e
            .violations
            .iter()
            .find(|(_, v)| matches!(v, ProtoViolation::DanglingSend { .. }))
            .unwrap();
        let trace = e.witness(*gid);
        let replayed = space.replay(&trace).unwrap();
        assert_eq!(replayed, e.key(*gid).to_vec());
        assert!(!space.violations_at(&replayed).is_empty());
    }

    #[test]
    fn true_deadlock_without_self_loop() {
        // Like above but rx truly halts in y: slot stays full, tx blocked
        // in b, no action enabled anywhere, send pending → deadlock.
        let text = "\
.channel c buf
.module tx
a -> b : c!
b -> a : c!
.module rx
x -> y : c?
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert!(e
            .violations
            .iter()
            .any(|(_, v)| matches!(v, ProtoViolation::Deadlock)));
        assert!(e
            .violations
            .iter()
            .any(|(_, v)| matches!(v, ProtoViolation::DanglingSend { .. })));
    }

    #[test]
    fn quiet_termination_is_not_a_deadlock() {
        // One rendezvous then both modules halt: no send pending at the
        // final state, so no violation.
        let text = "\
.channel go sync
.module a
s -> t : go!
.module b
u -> v : go?
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let e = explore(&space, ExploreOptions::with_cap(1000)).unwrap();
        assert_eq!(e.states, 2);
        assert!(e.violations.is_empty());
    }

    #[test]
    fn decode_and_replay_round_trip() {
        let text = "\
.channel c buf
.module tx
a -> b : c!
.module rx
x -> y : c?
";
        let sys = parse_proto(text).unwrap();
        let space = ProtoSpace::new(&sys);
        let init = space.initial();
        let d = space.decode(&init);
        assert_eq!(d.locals, vec![0, 0]);
        assert_eq!(d.slots, vec![false]);
        let labels = space.enabled_actions(&init);
        assert_eq!(labels.len(), 1, "only the send is enabled initially");
        let after = space.replay(&labels).unwrap();
        let d = space.decode(&after);
        assert_eq!(d.slots, vec![true]);
        assert!(space.replay(&[99]).is_none());
        assert_eq!(d.render(&sys), "rx=x tx=b | pending: c");
    }
}
