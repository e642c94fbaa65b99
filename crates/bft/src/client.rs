//! BFT clients: issue requests, collect matching replies carrying more
//! than `f` power, retry on timeout.

use std::collections::HashMap;

use fi_simnet::{Context, NodeId, TimerToken};
use fi_types::{SimTime, VotingPower};

use crate::message::{BftMessage, Operation};
use crate::weighted::{WeightedQuorum, WeightedVoteSet};

const RETRY: TimerToken = TimerToken::new(2);

/// A closed-loop client: one outstanding request at a time.
#[derive(Debug)]
pub struct Client {
    node_index: usize,
    quorum: WeightedQuorum,
    /// Each replica's voting power, by replica index.
    powers: Vec<VotingPower>,
    total_requests: u64,
    next_counter: u64,
    outstanding: Option<(Operation, SimTime)>,
    reply_votes: HashMap<(u64, u64), WeightedVoteSet>,
    completed: u64,
    retry_timeout: SimTime,
    retries: u64,
}

impl Client {
    /// Creates a client that will issue `total_requests` requests to
    /// replicas carrying `powers`, judged by `quorum` (the rule over their
    /// total).
    #[must_use]
    pub fn new(
        node_index: usize,
        quorum: WeightedQuorum,
        powers: Vec<VotingPower>,
        total_requests: u64,
        retry_timeout: SimTime,
    ) -> Self {
        Client {
            node_index,
            quorum,
            powers,
            total_requests,
            next_counter: 0,
            outstanding: None,
            reply_votes: HashMap::new(),
            completed: 0,
            retry_timeout,
            retries: 0,
        }
    }

    /// Requests completed so far.
    #[must_use]
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Whether every request completed.
    #[must_use]
    pub fn done(&self) -> bool {
        self.completed == self.total_requests
    }

    /// Number of retransmissions performed.
    #[must_use]
    pub fn retries(&self) -> u64 {
        self.retries
    }

    fn next_request(&mut self, ctx: &mut Context<'_, BftMessage>) {
        if self.next_counter >= self.total_requests {
            self.outstanding = None;
            return;
        }
        let op = Operation {
            client: self.node_index as u64,
            counter: self.next_counter,
            payload: self.node_index as u64 * 1_000_003 + self.next_counter,
        };
        self.next_counter += 1;
        self.outstanding = Some((op, ctx.now()));
        self.reply_votes.clear();
        self.send_request(op, ctx);
    }

    fn send_request(&self, op: Operation, ctx: &mut Context<'_, BftMessage>) {
        for i in 0..self.powers.len() {
            ctx.send(NodeId::new(i), BftMessage::Request { op });
        }
    }

    /// Start hook: issue the first request and arm the retry timer.
    pub fn on_start(&mut self, ctx: &mut Context<'_, BftMessage>) {
        self.next_request(ctx);
        ctx.set_timer(self.retry_timeout, RETRY);
    }

    /// Reply handling: tally matching `(counter, result)` votes from
    /// distinct replicas at their power; more than `f` power completes the
    /// request, since it includes at least one honest replica.
    pub fn on_message(&mut self, from: NodeId, msg: BftMessage, ctx: &mut Context<'_, BftMessage>) {
        let BftMessage::Reply { op, result, .. } = msg else {
            return;
        };
        if from.index() >= self.powers.len() {
            return; // replies must come from replicas
        }
        let Some((current, _)) = self.outstanding else {
            return;
        };
        if op != current {
            return;
        }
        let votes = self.reply_votes.entry((op.counter, result)).or_default();
        votes.vote(from.index(), &self.powers);
        if !self.quorum.tolerates(votes.power()) {
            self.completed += 1;
            self.next_request(ctx);
        }
    }

    /// Retry timer: rebroadcast the outstanding request.
    pub fn on_timer(&mut self, token: TimerToken, ctx: &mut Context<'_, BftMessage>) {
        if token != RETRY {
            return;
        }
        if let Some((op, sent_at)) = self.outstanding {
            if ctx.now().saturating_sub(sent_at) >= self.retry_timeout {
                self.retries += 1;
                self.send_request(op, ctx);
            }
        }
        if !self.done() {
            ctx.set_timer(self.retry_timeout, RETRY);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A client of four one-unit replicas.
    fn unit_client(total_requests: u64) -> Client {
        let quorum = WeightedQuorum::for_total(VotingPower::new(4)).unwrap();
        let powers = vec![VotingPower::new(1); 4];
        Client::new(4, quorum, powers, total_requests, SimTime::from_millis(100))
    }

    #[test]
    fn client_initial_state() {
        let c = unit_client(3);
        assert!(!c.done());
        assert_eq!(c.completed(), 0);
        assert_eq!(c.retries(), 0);
    }

    #[test]
    fn zero_request_client_is_done() {
        let c = unit_client(0);
        assert!(c.done());
    }

    // End-to-end request/reply flows are exercised via the harness tests.
}
