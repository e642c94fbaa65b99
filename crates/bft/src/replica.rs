//! The PBFT replica state machine.

use std::collections::{BTreeMap, HashMap, HashSet};

use fi_simnet::{Context, NodeId, TimerToken};
use fi_types::hash::hash_fields;
use fi_types::{Digest, SimTime, VotingPower};

use crate::byzantine::Behavior;
use crate::message::{BftMessage, Operation, PreparedCert};
use crate::weighted::{WeightedQuorum, WeightedVoteSet};

/// The periodic housekeeping timer (pending-request timeout checks).
pub(crate) const TICK: TimerToken = TimerToken::new(1);

/// A PBFT replica.
///
/// Replicas occupy node ids `0..n` in the simulation; clients follow. Every
/// vote counts at its sender's power, and every threshold is a
/// [`WeightedQuorum`] over the members' total. All protocol state is
/// public-read via accessors so harnesses can audit execution histories
/// after a run.
#[derive(Debug)]
pub struct Replica {
    index: usize,
    quorum: WeightedQuorum,
    /// Each member's voting power, by member index.
    powers: Vec<VotingPower>,
    behavior: Behavior,
    view: u64,
    next_seq: u64,
    last_executed: u64,
    last_stable: u64,
    checkpoint_interval: u64,
    view_change_timeout: SimTime,
    tick_interval: SimTime,

    /// Accepted proposals: `(view, seq) → (digest, op)`.
    proposals: HashMap<(u64, u64), (Digest, Operation)>,
    /// Prepare votes: `(view, seq, digest) → senders`.
    prepares: HashMap<(u64, u64, Digest), WeightedVoteSet>,
    /// Commit votes: `(view, seq, digest) → senders`.
    commits: HashMap<(u64, u64, Digest), WeightedVoteSet>,
    /// Highest-view prepared certificate per sequence.
    prepared: BTreeMap<u64, PreparedCert>,
    /// Committed-but-possibly-unexecuted requests per sequence.
    committed: BTreeMap<u64, (Digest, Operation)>,
    /// Sequences already sent a commit for (per view), to send once.
    commit_sent: HashSet<(u64, u64)>,
    /// Execution history `(seq, op)` in order.
    executed: Vec<(u64, Operation)>,
    executed_digests: HashSet<Digest>,
    state_digest: Digest,
    /// Digests this primary has already assigned sequences to.
    assigned: HashSet<Digest>,
    /// Requests seen but not yet executed: `digest → (op, first_seen)`.
    pending: HashMap<Digest, (Operation, SimTime)>,
    /// Checkpoint votes: `(seq, state) → senders`.
    checkpoints: HashMap<(u64, Digest), WeightedVoteSet>,
    /// View-change messages per proposed view: `view → sender → certs`.
    view_changes: HashMap<u64, BTreeMap<usize, Vec<PreparedCert>>>,
    /// The highest view this replica has voted to enter.
    highest_vc_sent: u64,
    /// Votes an equivocating replica has already echoed (dedup):
    /// `(phase, view, seq, digest)` with phase 0 = prepare, 1 = commit.
    echoed: HashSet<(u8, u64, u64, Digest)>,
}

impl Replica {
    /// Creates member `index` of a cluster whose members carry `powers`,
    /// counting votes against `quorum` (the rule over their total).
    #[must_use]
    pub fn new(
        index: usize,
        quorum: WeightedQuorum,
        powers: Vec<VotingPower>,
        checkpoint_interval: u64,
        view_change_timeout: SimTime,
    ) -> Self {
        Replica {
            index,
            quorum,
            powers,
            behavior: Behavior::Honest,
            view: 0,
            next_seq: 0,
            last_executed: 0,
            last_stable: 0,
            checkpoint_interval: checkpoint_interval.max(1),
            view_change_timeout,
            tick_interval: SimTime::from_micros((view_change_timeout.as_micros() / 2).max(1)),
            proposals: HashMap::new(),
            prepares: HashMap::new(),
            commits: HashMap::new(),
            prepared: BTreeMap::new(),
            committed: BTreeMap::new(),
            commit_sent: HashSet::new(),
            executed: Vec::new(),
            executed_digests: HashSet::new(),
            state_digest: Digest::ZERO,
            assigned: HashSet::new(),
            pending: HashMap::new(),
            checkpoints: HashMap::new(),
            view_changes: HashMap::new(),
            highest_vc_sent: 0,
            echoed: HashSet::new(),
        }
    }

    /// This replica's index.
    #[must_use]
    pub fn index(&self) -> usize {
        self.index
    }

    /// Current view.
    #[must_use]
    pub fn view(&self) -> u64 {
        self.view
    }

    /// Current behaviour.
    #[must_use]
    pub fn behavior(&self) -> Behavior {
        self.behavior
    }

    /// The execution history `(seq, op)` in execution order.
    #[must_use]
    pub fn executed(&self) -> &[(u64, Operation)] {
        &self.executed
    }

    /// Last stable checkpoint.
    #[must_use]
    pub fn last_stable(&self) -> u64 {
        self.last_stable
    }

    fn is_primary(&self) -> bool {
        self.primary_of(self.view) == self.index
    }

    /// The primary of `view`: a rotation over member indices.
    fn primary_of(&self, view: u64) -> usize {
        (view % self.n() as u64) as usize
    }

    fn n(&self) -> usize {
        self.powers.len()
    }

    /// Whether a tally holds a quorum's power.
    fn has_quorum(&self, votes: Option<&WeightedVoteSet>) -> bool {
        votes.is_some_and(|v| self.quorum.reaches_quorum(v.power()))
    }

    /// The power of the members that sent view changes for one view.
    fn view_change_power(&self, votes: &BTreeMap<usize, Vec<PreparedCert>>) -> VotingPower {
        votes.keys().map(|&i| self.powers[i]).sum()
    }

    /// Sends to all *replicas* (not clients), plus processes own vote
    /// locally where the protocol counts it.
    fn broadcast_replicas(&self, ctx: &mut Context<'_, BftMessage>, msg: &BftMessage) {
        for i in 0..self.n() {
            if i != self.index {
                ctx.send(NodeId::new(i), msg.clone());
            }
        }
    }

    // ------------------------------------------------------------------
    // Request handling / proposal
    // ------------------------------------------------------------------

    fn handle_request(&mut self, op: Operation, ctx: &mut Context<'_, BftMessage>) {
        let digest = op.digest();
        if self.executed_digests.contains(&digest) {
            // Already executed: re-reply so a retransmitting client
            // converges.
            if self.behavior.sends_messages() {
                ctx.send(
                    NodeId::new(op.client as usize),
                    BftMessage::Reply {
                        view: self.view,
                        op,
                        result: op.payload,
                    },
                );
            }
            return;
        }
        self.pending.entry(digest).or_insert((op, ctx.now()));
        if self.is_primary() && self.behavior.sends_messages() {
            self.propose_pending(ctx);
        }
    }

    /// As primary: assign sequences to every pending, unassigned request.
    fn propose_pending(&mut self, ctx: &mut Context<'_, BftMessage>) {
        let mut to_propose: Vec<Operation> = self
            .pending
            .iter()
            .filter(|(d, _)| !self.assigned.contains(*d))
            .map(|(_, (op, _))| *op)
            .collect();
        // Deterministic proposal order.
        to_propose.sort_by_key(|op| (op.client, op.counter));
        for op in to_propose {
            let digest = op.digest();
            self.next_seq += 1;
            let seq = self.next_seq;
            self.assigned.insert(digest);
            if self.behavior == Behavior::Equivocate {
                self.equivocate_proposal(seq, op, ctx);
                continue;
            }
            self.proposals.insert((self.view, seq), (digest, op));
            // The primary's pre-prepare counts as its prepare vote.
            self.prepares
                .entry((self.view, seq, digest))
                .or_default()
                .vote(self.index, &self.powers);
            self.broadcast_replicas(
                ctx,
                &BftMessage::PrePrepare {
                    view: self.view,
                    seq,
                    digest,
                    op,
                },
            );
        }
    }

    /// An equivocating primary proposes two conflicting operations for the
    /// same sequence, one to each half of the cluster.
    fn equivocate_proposal(&mut self, seq: u64, op: Operation, ctx: &mut Context<'_, BftMessage>) {
        let evil_op = Operation {
            payload: op.payload.wrapping_add(0xDEAD_BEEF),
            ..op
        };
        let good = BftMessage::PrePrepare {
            view: self.view,
            seq,
            digest: op.digest(),
            op,
        };
        let evil = BftMessage::PrePrepare {
            view: self.view,
            seq,
            digest: evil_op.digest(),
            op: evil_op,
        };
        for i in 0..self.n() {
            if i == self.index {
                continue;
            }
            let msg = if i % 2 == 0 {
                good.clone()
            } else {
                evil.clone()
            };
            ctx.send(NodeId::new(i), msg);
        }
    }

    // ------------------------------------------------------------------
    // Three-phase agreement
    // ------------------------------------------------------------------

    fn handle_preprepare(
        &mut self,
        from: usize,
        view: u64,
        seq: u64,
        digest: Digest,
        op: Operation,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        if view != self.view || from != self.primary_of(view) {
            return;
        }
        if seq <= self.last_stable {
            return;
        }
        if op.digest() != digest {
            return; // malformed proposal
        }
        // Accept at most one digest per (view, seq).
        if let Some((existing, _)) = self.proposals.get(&(view, seq)) {
            if *existing != digest {
                return; // primary equivocated; keep the first
            }
        } else {
            self.proposals.insert((view, seq), (digest, op));
        }
        self.pending.entry(digest).or_insert((op, ctx.now()));
        // Record the primary's implicit prepare and our own.
        self.prepares
            .entry((view, seq, digest))
            .or_default()
            .vote(from, &self.powers);
        if !self.behavior.sends_messages() {
            return;
        }
        let vote_digest = if self.behavior == Behavior::Equivocate {
            corrupt_digest(&digest)
        } else {
            digest
        };
        self.prepares
            .entry((view, seq, vote_digest))
            .or_default()
            .vote(self.index, &self.powers);
        self.broadcast_replicas(
            ctx,
            &BftMessage::Prepare {
                view,
                seq,
                digest: vote_digest,
            },
        );
        self.try_prepare_certificate(view, seq, digest, ctx);
    }

    fn handle_prepare(
        &mut self,
        from: usize,
        view: u64,
        seq: u64,
        digest: Digest,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        if view != self.view || seq <= self.last_stable {
            return;
        }
        self.prepares
            .entry((view, seq, digest))
            .or_default()
            .vote(from, &self.powers);
        // A double-voting equivocator lends its support to *every* digest
        // it hears about — the collusion that makes an equivocating
        // primary's fork succeed once the faulty set exceeds f.
        if self.behavior == Behavior::Equivocate && self.echoed.insert((0, view, seq, digest)) {
            self.prepares
                .entry((view, seq, digest))
                .or_default()
                .vote(self.index, &self.powers);
            self.broadcast_replicas(ctx, &BftMessage::Prepare { view, seq, digest });
            self.commits
                .entry((view, seq, digest))
                .or_default()
                .vote(self.index, &self.powers);
            self.broadcast_replicas(ctx, &BftMessage::Commit { view, seq, digest });
        }
        self.try_prepare_certificate(view, seq, digest, ctx);
    }

    /// If the prepare quorum is reached for the digest we accepted a
    /// proposal for, form the certificate and commit.
    fn try_prepare_certificate(
        &mut self,
        view: u64,
        seq: u64,
        digest: Digest,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        let Some(&(accepted, op)) = self.proposals.get(&(view, seq)) else {
            return;
        };
        if accepted != digest {
            return;
        }
        if !self.has_quorum(self.prepares.get(&(view, seq, digest))) {
            return;
        }
        self.prepared
            .entry(seq)
            .and_modify(|cert| {
                if view >= cert.view {
                    *cert = PreparedCert {
                        view,
                        seq,
                        digest,
                        op,
                    };
                }
            })
            .or_insert(PreparedCert {
                view,
                seq,
                digest,
                op,
            });
        if !self.commit_sent.insert((view, seq)) {
            return;
        }
        // Our own commit vote.
        self.commits
            .entry((view, seq, digest))
            .or_default()
            .vote(self.index, &self.powers);
        if self.behavior.sends_messages() && self.behavior != Behavior::WithholdCommit {
            self.broadcast_replicas(ctx, &BftMessage::Commit { view, seq, digest });
        }
        self.try_commit(view, seq, digest, ctx);
    }

    fn handle_commit(
        &mut self,
        from: usize,
        view: u64,
        seq: u64,
        digest: Digest,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        if seq <= self.last_stable {
            return;
        }
        self.commits
            .entry((view, seq, digest))
            .or_default()
            .vote(from, &self.powers);
        if self.behavior == Behavior::Equivocate && self.echoed.insert((1, view, seq, digest)) {
            self.commits
                .entry((view, seq, digest))
                .or_default()
                .vote(self.index, &self.powers);
            self.broadcast_replicas(ctx, &BftMessage::Commit { view, seq, digest });
        }
        self.try_commit(view, seq, digest, ctx);
    }

    fn try_commit(
        &mut self,
        view: u64,
        seq: u64,
        digest: Digest,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        if self.committed.contains_key(&seq) {
            return;
        }
        if !self.has_quorum(self.commits.get(&(view, seq, digest))) {
            return;
        }
        let Some(&(accepted, op)) = self.proposals.get(&(view, seq)) else {
            return;
        };
        if accepted != digest {
            return;
        }
        self.committed.insert(seq, (digest, op));
        self.execute_ready(ctx);
    }

    fn execute_ready(&mut self, ctx: &mut Context<'_, BftMessage>) {
        while let Some(&(digest, op)) = self.committed.get(&(self.last_executed + 1)) {
            self.last_executed += 1;
            let seq = self.last_executed;
            self.executed.push((seq, op));
            self.executed_digests.insert(digest);
            self.pending.remove(&digest);
            self.state_digest = hash_fields(&[
                b"fi-bft-state-v1",
                self.state_digest.as_bytes(),
                digest.as_bytes(),
            ]);
            if self.behavior.sends_messages() {
                ctx.send(
                    NodeId::new(op.client as usize),
                    BftMessage::Reply {
                        view: self.view,
                        op,
                        result: op.payload,
                    },
                );
            }
            if seq.is_multiple_of(self.checkpoint_interval) {
                let state = self.state_digest;
                self.checkpoints
                    .entry((seq, state))
                    .or_default()
                    .vote(self.index, &self.powers);
                if self.behavior.sends_messages() {
                    self.broadcast_replicas(ctx, &BftMessage::Checkpoint { seq, state });
                }
                self.try_stabilize(seq, state);
            }
        }
    }

    // ------------------------------------------------------------------
    // Checkpoints
    // ------------------------------------------------------------------

    fn handle_checkpoint(&mut self, from: usize, seq: u64, state: Digest) {
        self.checkpoints
            .entry((seq, state))
            .or_default()
            .vote(from, &self.powers);
        self.try_stabilize(seq, state);
    }

    fn try_stabilize(&mut self, seq: u64, state: Digest) {
        if !self.has_quorum(self.checkpoints.get(&(seq, state))) || seq <= self.last_stable {
            return;
        }
        self.last_stable = seq;
        // Garbage-collect the log below the stable checkpoint.
        self.proposals.retain(|&(_, s), _| s > seq);
        self.prepares.retain(|&(_, s, _), _| s > seq);
        self.commits.retain(|&(_, s, _), _| s > seq);
        self.committed.retain(|&s, _| s > seq);
        self.prepared.retain(|&s, _| s > seq);
        self.commit_sent.retain(|&(_, s)| s > seq);
        self.checkpoints.retain(|&(s, _), _| s >= seq);
    }

    // ------------------------------------------------------------------
    // View change
    // ------------------------------------------------------------------

    fn tick(&mut self, ctx: &mut Context<'_, BftMessage>) {
        if self.behavior.sends_messages() {
            // A stalled pending request triggers a view change vote.
            let now = ctx.now();
            let overdue = self
                .pending
                .values()
                .any(|&(_, first_seen)| now.saturating_sub(first_seen) > self.view_change_timeout);
            if overdue {
                // Escalate one view per timeout: if the view change we
                // already voted for has not completed (e.g. the next
                // primary is also faulty), move to the view after it.
                let next = if self.highest_vc_sent <= self.view {
                    self.view + 1
                } else {
                    self.highest_vc_sent + 1
                };
                self.start_view_change(next, ctx);
            }
            // A primary that inherited pending requests proposes them.
            if self.is_primary() {
                self.propose_pending(ctx);
            }
        }
        ctx.set_timer(self.tick_interval, TICK);
    }

    fn start_view_change(&mut self, new_view: u64, ctx: &mut Context<'_, BftMessage>) {
        self.highest_vc_sent = new_view;
        let prepared: Vec<PreparedCert> = self
            .prepared
            .values()
            .filter(|c| c.seq > self.last_stable)
            .cloned()
            .collect();
        // Record our own vote.
        self.view_changes
            .entry(new_view)
            .or_default()
            .insert(self.index, prepared.clone());
        let msg = BftMessage::ViewChange {
            new_view,
            last_stable: self.last_stable,
            prepared,
        };
        self.broadcast_replicas(ctx, &msg);
        self.maybe_lead_new_view(new_view, ctx);
        // Reset pending clocks so we do not spam view changes every tick.
        let now = ctx.now();
        for entry in self.pending.values_mut() {
            entry.1 = now;
        }
    }

    fn handle_view_change(
        &mut self,
        from: usize,
        new_view: u64,
        prepared: Vec<PreparedCert>,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        if new_view <= self.view {
            return;
        }
        self.view_changes
            .entry(new_view)
            .or_default()
            .insert(from, prepared);
        // Join a view change backed by more than f power, so by at least
        // one honest member (the standard liveness amplification rule).
        let support = self.view_change_power(&self.view_changes[&new_view]);
        if !self.quorum.tolerates(support)
            && self.highest_vc_sent < new_view
            && self.behavior.sends_messages()
        {
            self.start_view_change(new_view, ctx);
        }
        self.maybe_lead_new_view(new_view, ctx);
    }

    fn maybe_lead_new_view(&mut self, new_view: u64, ctx: &mut Context<'_, BftMessage>) {
        if self.primary_of(new_view) != self.index
            || new_view <= self.view
            || !self.behavior.sends_messages()
        {
            return;
        }
        let Some(votes) = self.view_changes.get(&new_view) else {
            return;
        };
        let support = self.view_change_power(votes);
        if !self.quorum.reaches_quorum(support) {
            return;
        }
        // Merge prepared certificates: highest view wins per sequence.
        let mut merged: BTreeMap<u64, PreparedCert> = BTreeMap::new();
        for certs in votes.values() {
            for cert in certs {
                merged
                    .entry(cert.seq)
                    .and_modify(|existing| {
                        if cert.view > existing.view {
                            *existing = cert.clone();
                        }
                    })
                    .or_insert_with(|| cert.clone());
            }
        }
        let preprepares: Vec<PreparedCert> = merged.into_values().collect();
        self.enter_view(new_view);
        // Adopt the re-issued proposals locally (with the new view).
        for cert in &preprepares {
            self.adopt_reissued(new_view, cert);
            self.next_seq = self.next_seq.max(cert.seq);
        }
        self.broadcast_replicas(
            ctx,
            &BftMessage::NewView {
                view: new_view,
                support,
                preprepares: preprepares.clone(),
            },
        );
        // Send our prepare votes for the re-issued proposals.
        for cert in &preprepares {
            self.broadcast_replicas(
                ctx,
                &BftMessage::Prepare {
                    view: new_view,
                    seq: cert.seq,
                    digest: cert.digest,
                },
            );
            self.try_prepare_certificate(new_view, cert.seq, cert.digest, ctx);
        }
        // Propose anything still pending and unassigned under the new view.
        self.propose_pending(ctx);
    }

    fn handle_new_view(
        &mut self,
        from: usize,
        view: u64,
        support: VotingPower,
        preprepares: Vec<PreparedCert>,
        ctx: &mut Context<'_, BftMessage>,
    ) {
        if view <= self.view
            || from != self.primary_of(view)
            || !self.quorum.reaches_quorum(support)
        {
            return;
        }
        self.enter_view(view);
        for cert in &preprepares {
            self.adopt_reissued(view, cert);
            if self.behavior.sends_messages() {
                self.prepares
                    .entry((view, cert.seq, cert.digest))
                    .or_default()
                    .vote(self.index, &self.powers);
                self.broadcast_replicas(
                    ctx,
                    &BftMessage::Prepare {
                        view,
                        seq: cert.seq,
                        digest: cert.digest,
                    },
                );
                self.try_prepare_certificate(view, cert.seq, cert.digest, ctx);
            }
        }
    }

    fn enter_view(&mut self, view: u64) {
        self.view = view;
        self.assigned.clear();
        // Requests already executed must not be re-proposed.
        for (_, op) in self.executed.iter() {
            self.assigned.insert(op.digest());
        }
    }

    fn adopt_reissued(&mut self, view: u64, cert: &PreparedCert) {
        if cert.seq <= self.last_stable || self.executed_digests.contains(&cert.digest) {
            return;
        }
        self.proposals
            .entry((view, cert.seq))
            .or_insert((cert.digest, cert.op));
        self.assigned.insert(cert.digest);
        // The new-view message carries quorum evidence; the primary's
        // implicit prepare:
        let primary = self.primary_of(view);
        self.prepares
            .entry((view, cert.seq, cert.digest))
            .or_default()
            .vote(primary, &self.powers);
    }

    // ------------------------------------------------------------------
    // Simulator plumbing
    // ------------------------------------------------------------------

    /// Entry point for simulator events (called by the harness node
    /// wrapper).
    pub fn on_message(&mut self, from: NodeId, msg: BftMessage, ctx: &mut Context<'_, BftMessage>) {
        if self.behavior == Behavior::Crashed {
            return;
        }
        let from_index = from.index();
        let from_replica = from_index < self.n();
        match msg {
            BftMessage::Request { op } => self.handle_request(op, ctx),
            BftMessage::PrePrepare {
                view,
                seq,
                digest,
                op,
            } if from_replica => self.handle_preprepare(from_index, view, seq, digest, op, ctx),
            BftMessage::Prepare { view, seq, digest } if from_replica => {
                self.handle_prepare(from_index, view, seq, digest, ctx)
            }
            BftMessage::Commit { view, seq, digest } if from_replica => {
                self.handle_commit(from_index, view, seq, digest, ctx)
            }
            BftMessage::Checkpoint { seq, state } if from_replica => {
                self.handle_checkpoint(from_index, seq, state)
            }
            BftMessage::ViewChange {
                new_view, prepared, ..
            } if from_replica => self.handle_view_change(from_index, new_view, prepared, ctx),
            BftMessage::NewView {
                view,
                support,
                preprepares,
            } if from_replica => self.handle_new_view(from_index, view, support, preprepares, ctx),
            _ => {}
        }
    }

    /// Timer entry point.
    pub fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, BftMessage>) {
        if self.behavior == Behavior::Crashed {
            return;
        }
        if token == TICK {
            self.tick(ctx);
        }
    }

    /// Start hook: arms the housekeeping timer.
    pub fn on_start(&mut self, ctx: &mut Context<'_, BftMessage>) {
        ctx.set_timer(self.tick_interval, TICK);
    }

    /// Fault-injection hook: from now on the replica behaves as
    /// `behavior` ([`Behavior::Honest`] is a recovery).
    pub fn on_fault(&mut self, behavior: Behavior) {
        self.behavior = behavior;
    }
}

fn corrupt_digest(d: &Digest) -> Digest {
    hash_fields(&[b"fi-bft-equivocation", d.as_bytes()])
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Member `index` of four one-unit members.
    fn unit_replica(index: usize) -> Replica {
        let quorum = WeightedQuorum::for_total(VotingPower::new(4)).unwrap();
        let powers = vec![VotingPower::new(1); 4];
        Replica::new(index, quorum, powers, 16, SimTime::from_millis(500))
    }

    #[test]
    fn replica_construction_defaults() {
        let r = unit_replica(2);
        assert_eq!(r.index(), 2);
        assert_eq!(r.view(), 0);
        assert_eq!(r.behavior(), Behavior::Honest);
        assert_eq!(r.last_executed, 0);
        assert_eq!(r.last_stable(), 0);
        assert!(r.executed().is_empty());
        assert_eq!(r.state_digest, Digest::ZERO);
    }

    #[test]
    fn fault_hooks_flip_behavior() {
        let mut r = unit_replica(0);
        r.on_fault(Behavior::Equivocate);
        assert_eq!(r.behavior(), Behavior::Equivocate);
        r.on_fault(Behavior::Crashed);
        assert_eq!(r.behavior(), Behavior::Crashed);
        r.on_fault(Behavior::Honest);
        assert_eq!(r.behavior(), Behavior::Honest);
    }

    #[test]
    fn primary_rotates_through_all_replicas() {
        let r = unit_replica(0);
        let primaries: Vec<usize> = (0..8).map(|v| r.primary_of(v)).collect();
        assert_eq!(primaries, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn corrupt_digest_differs() {
        let d = fi_types::sha256(b"x");
        assert_ne!(corrupt_digest(&d), d);
        assert_eq!(corrupt_digest(&d), corrupt_digest(&d));
    }

    // Full protocol behaviour is exercised end-to-end in harness.rs tests
    // and in the integration suite.
}
