//! Proxy-side batching of quorum-read probes (§4.3 over the relay
//! tree, amortized).
//!
//! PR-3 measured that quorum reads bypass the leader's command batcher
//! entirely: every read pays its own relay-tree fan-out/fan-in (~12
//! probe messages per read on a 9-node / 2-group cluster) while write
//! rounds amortize through `P2aBatch`. The [`ProbeBatcher`] closes that
//! gap on the proxy side: pending read keys coalesce into one
//! [`paxos::PaxosMsg::QrReadBatch`] per relay *wave*, each relay fans
//! the wave out once, replicas answer every probe in one pass, and each
//! relay returns a single aggregated `QrVoteBatch` uplink per group.
//!
//! Two mechanisms stack:
//!
//! 1. **Size-or-time with adaptive sizing** — the same
//!    [`BatchConfig`]/EWMA machinery as leader-side command batching
//!    ([`paxi::RateEstimator`]): the fill target tracks the probe
//!    arrival rate, so an isolated read at low load flushes immediately
//!    and pays no batching latency.
//! 2. **Wave self-clocking** — at most one probe wave is outstanding
//!    per proxy. Probes arriving while a wave is in flight buffer
//!    behind it and ship together the moment the wave's relay uplinks
//!    return (or its timeout fires). Under closed-loop load this sizes
//!    waves to the natural concurrency at the proxy without any tuning:
//!    the batch grows exactly as fast as the relay round-trip allows.
//!
//! The batcher is pure bookkeeping (no timers, no I/O): the replica
//! owns dissemination and timer arming, mirroring how
//! [`paxos::BatchLane`] splits policy from transport.

use paxi::{BatchConfig, RateEstimator};
use paxos::QrProbe;
use simnet::{NodeId, SimTime};
use std::collections::BTreeSet;

/// What the replica must do after offering a probe to the batcher.
#[derive(Debug, PartialEq, Eq)]
pub enum ProbePush {
    /// Fill target reached with no wave outstanding: send this wave
    /// now (the caller opens the wave via [`ProbeBatcher::wave_opened`]
    /// once it knows how many relay uplinks to expect).
    Flush(Vec<QrProbe>),
    /// First probe buffered with no wave outstanding: arm the
    /// `max_delay` flush timer.
    ArmTimer,
    /// Buffered (behind an armed timer or an outstanding wave).
    Buffered,
}

/// What the replica must do after a wave completes (or times out).
#[derive(Debug, PartialEq, Eq)]
pub enum ProbeRelease {
    /// The buffer reached the fill target while gated: send it as the
    /// next wave now.
    Flush(Vec<QrProbe>),
    /// Probes are buffered but below the fill target: arm the
    /// `max_delay` flush timer and let the batch keep growing.
    ArmTimer,
    /// Nothing buffered behind the wave.
    Idle,
}

#[derive(Debug)]
struct Outstanding {
    wave: u64,
    /// Relays whose uplink is still expected before the gate reopens.
    /// A set, not a count: partial-threshold relays send *two* uplinks
    /// per round (partial + completion), and a count would let one
    /// relay's pair reopen the gate while the other group is still in
    /// flight.
    awaiting: BTreeSet<NodeId>,
}

/// Coalesces pending quorum-read probes into relay waves.
#[derive(Debug)]
pub struct ProbeBatcher {
    cfg: BatchConfig,
    buf: Vec<QrProbe>,
    rate: RateEstimator,
    next_wave: u64,
    outstanding: Option<Outstanding>,
    /// Bumped whenever the buffer ships, so a hold timer armed for an
    /// earlier buffer cannot flush a later one before its window.
    generation: u64,
}

impl ProbeBatcher {
    /// Empty batcher with the given policy. Under
    /// `BatchConfig::disabled()` (the default) every probe flushes at
    /// once as a wave of one, and the replica opens no wave gate, so
    /// concurrent reads never wait behind each other.
    pub fn new(cfg: BatchConfig) -> Self {
        ProbeBatcher {
            buf: Vec::with_capacity(cfg.max_batch),
            cfg,
            rate: RateEstimator::new(),
            next_wave: 0,
            outstanding: None,
            generation: 0,
        }
    }

    /// True when probe batching is active (`max_batch > 1`).
    pub fn enabled(&self) -> bool {
        self.cfg.enabled()
    }

    /// The active policy.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Probes currently buffered (diagnostics).
    pub fn buffered(&self) -> usize {
        self.buf.len()
    }

    /// True while a wave is in flight (the gate is closed).
    pub fn wave_outstanding(&self) -> bool {
        self.outstanding.is_some()
    }

    /// Allocate the id for a wave about to be disseminated.
    pub fn next_wave(&mut self) -> u64 {
        self.next_wave += 1;
        self.next_wave
    }

    /// The caller disseminated wave `wave` through these relays: close
    /// the gate until each of them has answered at least once (or the
    /// caller's wave timeout fires). An empty set leaves the gate open
    /// (nothing will ever answer).
    pub fn wave_opened(&mut self, wave: u64, relays: BTreeSet<NodeId>) {
        if !relays.is_empty() {
            self.outstanding = Some(Outstanding {
                wave,
                awaiting: relays,
            });
        }
    }

    /// The generation of the currently filling buffer — encode it in
    /// the hold-timer payload and hand it back to
    /// [`ProbeBatcher::on_hold_timer`] so only the timer armed for
    /// *this* buffer can flush it.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    fn take_buf(&mut self) -> Vec<QrProbe> {
        self.generation += 1;
        std::mem::take(&mut self.buf)
    }

    /// Offer a probe arriving at `now`.
    pub fn push(&mut self, probe: QrProbe, now: SimTime) -> ProbePush {
        if self.cfg.adaptive {
            self.rate.observe(now);
        }
        self.buf.push(probe);
        if self.outstanding.is_some() {
            return ProbePush::Buffered; // gated behind the in-flight wave
        }
        if self.buf.len() >= self.target() {
            ProbePush::Flush(self.take_buf())
        } else if self.buf.len() == 1 {
            ProbePush::ArmTimer
        } else {
            ProbePush::Buffered
        }
    }

    /// The current fill target: `max_batch` in fixed mode, the
    /// arrival-rate estimate in adaptive mode (same policy as the
    /// leader-side command batcher).
    fn target(&self) -> usize {
        if self.cfg.adaptive {
            self.rate.target(self.cfg.max_batch, self.cfg.max_delay)
        } else {
            self.cfg.max_batch
        }
    }

    /// The `max_delay` hold timer armed for buffer `generation` fired:
    /// flush whatever is buffered — unless the buffer it was armed for
    /// already shipped (stale generation) or a wave opened in the
    /// meantime (its completion will flush for us).
    pub fn on_hold_timer(&mut self, generation: u64) -> Option<Vec<QrProbe>> {
        if generation != self.generation || self.outstanding.is_some() || self.buf.is_empty() {
            return None;
        }
        Some(self.take_buf())
    }

    /// A relay uplink for `wave` arrived at the proxy. When the wave's
    /// last expected uplink lands, the gate reopens and the buffer
    /// behind it is released through the size-or-time policy: at or
    /// above the fill target it ships as the next wave immediately;
    /// below it, the batch keeps filling until the target or the
    /// `max_delay` timer (`ProbeRelease::ArmTimer`).
    pub fn on_uplink(&mut self, wave: u64, from: NodeId) -> ProbeRelease {
        match &mut self.outstanding {
            Some(o) if o.wave == wave => {
                // Remove by sender: a partial-threshold relay answers
                // twice, and duplicates must not stand in for the
                // relays still owing an uplink.
                o.awaiting.remove(&from);
                if !o.awaiting.is_empty() {
                    return ProbeRelease::Idle;
                }
            }
            _ => return ProbeRelease::Idle, // stale wave (released by timeout)
        }
        self.release()
    }

    /// The wave timeout fired (a relay crashed or its uplink was lost):
    /// force the gate open so buffered probes are not stuck behind a
    /// dead wave. No-op when the wave already completed.
    pub fn on_wave_timeout(&mut self, wave: u64) -> ProbeRelease {
        match &self.outstanding {
            Some(o) if o.wave == wave => {}
            _ => return ProbeRelease::Idle,
        }
        self.release()
    }

    fn release(&mut self) -> ProbeRelease {
        self.outstanding = None;
        if self.buf.is_empty() {
            ProbeRelease::Idle
        } else if self.buf.len() >= self.target() {
            ProbeRelease::Flush(self.take_buf())
        } else {
            ProbeRelease::ArmTimer
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use simnet::SimDuration;

    fn relays(ids: &[u32]) -> BTreeSet<NodeId> {
        ids.iter().map(|&n| NodeId(n)).collect()
    }

    fn probe(id: u64) -> QrProbe {
        QrProbe {
            id,
            attempt: 1,
            key: id,
        }
    }

    fn at(us: u64) -> SimTime {
        SimTime::from_micros(us)
    }

    fn adaptive() -> ProbeBatcher {
        ProbeBatcher::new(paxi::BatchConfig::adaptive(
            16,
            SimDuration::from_micros(200),
        ))
    }

    #[test]
    fn disabled_config_reports_disabled() {
        let b = ProbeBatcher::new(BatchConfig::disabled());
        assert!(!b.enabled());
        assert!(adaptive().enabled());
    }

    #[test]
    fn first_probe_at_low_load_flushes_immediately() {
        // No rate estimate yet → target 1 → zero added read latency.
        let mut b = adaptive();
        match b.push(probe(1), at(0)) {
            ProbePush::Flush(wave) => assert_eq!(wave.len(), 1),
            other => panic!("expected immediate flush, got {other:?}"),
        }
        assert_eq!(b.buffered(), 0);
    }

    #[test]
    fn fixed_mode_fills_to_max_batch() {
        let mut b = ProbeBatcher::new(BatchConfig::new(3, SimDuration::from_micros(200)));
        assert_eq!(b.push(probe(1), at(0)), ProbePush::ArmTimer);
        assert_eq!(b.push(probe(2), at(1)), ProbePush::Buffered);
        match b.push(probe(3), at(2)) {
            ProbePush::Flush(wave) => assert_eq!(wave.len(), 3),
            other => panic!("expected flush, got {other:?}"),
        }
    }

    #[test]
    fn probes_gate_behind_an_outstanding_wave_and_release_on_completion() {
        let mut b = adaptive();
        let ProbePush::Flush(first) = b.push(probe(1), at(0)) else {
            panic!("first probe flushes")
        };
        let wave = b.next_wave();
        b.wave_opened(wave, relays(&[5, 6])); // two relay groups
        assert!(b.wave_outstanding());
        // Everything arriving mid-flight buffers, regardless of target.
        assert_eq!(b.push(probe(2), at(10)), ProbePush::Buffered);
        assert_eq!(b.push(probe(3), at(20)), ProbePush::Buffered);
        assert_eq!(b.push(probe(4), at(30)), ProbePush::Buffered);
        assert_eq!(first.len(), 1);
        // Relay 5's uplink: gate stays closed — and a *duplicate* from
        // relay 5 (partial-threshold relays answer twice) must not
        // stand in for relay 6. Relay 6's uplink reopens the gate. The
        // dense arrivals drove the adaptive target above the 3 buffered
        // probes, so the release keeps filling behind the hold timer,
        // which then ships everything as one wave.
        assert_eq!(b.on_uplink(wave, NodeId(5)), ProbeRelease::Idle);
        assert_eq!(
            b.on_uplink(wave, NodeId(5)),
            ProbeRelease::Idle,
            "duplicate uplink from the same relay must not reopen the gate"
        );
        assert_eq!(b.on_uplink(wave, NodeId(6)), ProbeRelease::ArmTimer);
        assert!(!b.wave_outstanding());
        let next = b
            .on_hold_timer(b.generation())
            .expect("timer flushes the open buffer");
        assert_eq!(next.len(), 3, "self-clocked wave carries all arrivals");
    }

    #[test]
    fn wave_timeout_forces_the_gate_open() {
        let mut b = adaptive();
        b.push(probe(1), at(0));
        let wave = b.next_wave();
        b.wave_opened(wave, relays(&[5, 6]));
        b.push(probe(2), at(5));
        // One uplink arrives; the other relay crashed. The forced
        // release reopens the gate (the short 0→5µs gap pushed the
        // adaptive target above 1, so the buffer rides the hold timer).
        assert_eq!(b.on_uplink(wave, NodeId(5)), ProbeRelease::Idle);
        assert_eq!(b.on_wave_timeout(wave), ProbeRelease::ArmTimer);
        assert!(!b.wave_outstanding(), "timeout must force the gate open");
        // A late uplink (or second timeout) for the dead wave is inert.
        assert_eq!(b.on_uplink(wave, NodeId(6)), ProbeRelease::Idle);
        assert_eq!(b.on_wave_timeout(wave), ProbeRelease::Idle);
        let gen = b.generation();
        assert_eq!(b.on_hold_timer(gen).expect("buffer intact").len(), 1);
    }

    #[test]
    fn hold_timer_flushes_only_when_gate_open() {
        let mut b = ProbeBatcher::new(BatchConfig::new(8, SimDuration::from_micros(200)));
        assert_eq!(b.push(probe(1), at(0)), ProbePush::ArmTimer);
        let wave = b.next_wave();
        b.wave_opened(wave, relays(&[5]));
        assert!(
            b.on_hold_timer(b.generation()).is_none(),
            "gated buffer waits for the wave, not the timer"
        );
        // Fixed-size target (8) not reached: the release re-arms the
        // hold timer rather than shipping a tiny wave.
        assert_eq!(b.on_uplink(wave, NodeId(5)), ProbeRelease::ArmTimer);
        assert_eq!(b.push(probe(2), at(300)), ProbePush::Buffered);
        let gen = b.generation();
        let flushed = b.on_hold_timer(gen).expect("timer flushes open buffer");
        assert_eq!(flushed.len(), 2);
        assert!(b.on_hold_timer(gen).is_none(), "nothing left");
    }

    #[test]
    fn stale_generation_hold_timer_cannot_flush_a_newer_buffer() {
        let mut b = ProbeBatcher::new(BatchConfig::new(2, SimDuration::from_micros(200)));
        assert_eq!(b.push(probe(1), at(0)), ProbePush::ArmTimer);
        let stale_gen = b.generation();
        // The buffer fills to target and ships before the timer fires.
        match b.push(probe(2), at(10)) {
            ProbePush::Flush(w) => assert_eq!(w.len(), 2),
            other => panic!("expected flush, got {other:?}"),
        }
        // A new buffer starts filling; the OLD timer fires now. It must
        // not ship the new buffer before its own window.
        assert_eq!(b.push(probe(3), at(20)), ProbePush::ArmTimer);
        assert!(
            b.on_hold_timer(stale_gen).is_none(),
            "stale-generation timer must be inert"
        );
        assert_eq!(b.buffered(), 1, "new buffer intact");
        assert_eq!(b.on_hold_timer(b.generation()).expect("own timer").len(), 1);
    }

    #[test]
    fn wave_ids_are_unique_and_monotonic() {
        let mut b = adaptive();
        let w1 = b.next_wave();
        let w2 = b.next_wave();
        assert!(w2 > w1);
    }
}
