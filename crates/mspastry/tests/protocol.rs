//! Protocol behaviour tests driving the public `Node::handle` surface.
//!
//! These started life as `node.rs`-internal unit tests; after the protocol
//! core was layered into per-mechanism modules they were rewritten against
//! the public API only (events in, actions out), so the internal layout can
//! change freely without touching them. Timer-free message pumping only —
//! the full asynchronous behaviour is exercised by the simulator tests.

use mspastry::config::MAX_PROBE_RETRIES;
use mspastry::diag::DROP_REASON_COUNTERS;
use mspastry::{
    Action, Config, Effects, Event, Id, LookupId, Message, Node, NodeId, TimerKind,
    JOIN_BUFFER_CAP, ROOT_RETX_ATTEMPTS,
};
use obs::Obs;

fn cfg() -> Config {
    Config {
        nearest_neighbor_join: false,
        ..Config::default()
    }
}

/// Delivers every queued send between nodes until quiescence, returning the
/// non-send actions. Advancing a fake clock and firing timers is out of
/// scope here.
fn pump(nodes: &mut [Node], mut queue: Vec<(NodeId, NodeId, Message)>, now: u64) -> Vec<Action> {
    let mut others = Vec::new();
    let mut guard = 0;
    while let Some((from, to, msg)) = queue.pop() {
        guard += 1;
        assert!(guard < 10_000, "message storm");
        let Some(node) = nodes.iter_mut().find(|n| n.id() == to) else {
            continue;
        };
        let mut fx = Effects::new();
        node.handle(now, Event::Receive { from, msg }, &mut fx);
        for a in fx.drain() {
            match a {
                Action::Send { to: t, msg } => queue.push((to, t, msg)),
                other => others.push(other),
            }
        }
    }
    others
}

fn start_join(node: &mut Node, seed: Option<NodeId>, now: u64) -> Vec<(NodeId, NodeId, Message)> {
    let mut fx = Effects::new();
    node.handle(now, Event::Join { seed }, &mut fx);
    let id = node.id();
    fx.drain()
        .into_iter()
        .filter_map(|a| match a {
            Action::Send { to, msg } => Some((id, to, msg)),
            _ => None,
        })
        .collect()
}

/// Fires one event on `node` and returns the drained actions.
fn step(node: &mut Node, now: u64, event: Event) -> Vec<Action> {
    let mut fx = Effects::new();
    node.handle(now, event, &mut fx);
    fx.drain()
}

/// Builds a small active overlay of three nodes for handler tests.
fn trio() -> (Vec<Node>, [NodeId; 3]) {
    trio_with(cfg())
}

fn trio_with(cfg: Config) -> (Vec<Node>, [NodeId; 3]) {
    trio_obs(cfg, Obs::new(0.0, 1))
}

/// [`trio_with`], with every node counting into `obs`'s registry.
fn trio_obs(cfg: Config, obs: Obs) -> (Vec<Node>, [NodeId; 3]) {
    let ids = [Id(10 << 100), Id(200 << 100), Id(300 << 100)];
    let mut a = Node::with_obs(ids[0], cfg.clone(), obs.clone());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let mut b = Node::with_obs(ids[1], cfg.clone(), obs.clone());
    let qb = start_join(&mut b, Some(ids[0]), 1);
    let mut nodes = vec![a, b];
    pump(&mut nodes, qb, 2);
    let mut c = Node::with_obs(ids[2], cfg, obs);
    let qc = start_join(&mut c, Some(ids[0]), 3);
    nodes.push(c);
    pump(&mut nodes, qc, 4);
    assert!(nodes.iter().all(|n| n.is_active()));
    (nodes, ids)
}

#[test]
fn bootstrap_node_activates_immediately() {
    let mut n = Node::new(Id(1), cfg());
    let actions = step(&mut n, 0, Event::Join { seed: None });
    assert!(n.is_active());
    assert!(actions.iter().any(|a| matches!(a, Action::BecameActive)));
}

#[test]
fn two_node_overlay_forms_and_routes() {
    let a_id = Id(10 << 100);
    let b_id = Id(200 << 100);
    let mut a = Node::new(a_id, cfg());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let mut b = Node::new(b_id, cfg());
    let q = start_join(&mut b, Some(a_id), 1);
    let mut nodes = vec![a, b];
    let actions = pump(&mut nodes, q, 2);
    assert!(actions.iter().any(|a| matches!(a, Action::BecameActive)));
    let (a, b) = (&nodes[0], &nodes[1]);
    assert!(a.is_active() && b.is_active());
    assert!(a.leaf_set().contains(b_id));
    assert!(b.leaf_set().contains(a_id));

    // A lookup for a key near b delivered at b.
    let key = Id((200 << 100) + 5);
    let sends: Vec<(NodeId, NodeId, Message)> =
        step(&mut nodes[0], 10, Event::Lookup { key, payload: 7 })
            .into_iter()
            .filter_map(|act| match act {
                Action::Send { to, msg } => Some((a_id, to, msg)),
                _ => None,
            })
            .collect();
    assert!(!sends.is_empty());
    let actions = pump(&mut nodes, sends, 11);
    let delivered = actions
        .iter()
        .any(|act| matches!(act, Action::Deliver(d) if d.key == key && d.payload == 7));
    assert!(delivered, "lookup must be delivered at b; got {actions:?}");
}

#[test]
fn lookup_while_joining_is_buffered_and_flushed() {
    let a_id = Id(10 << 100);
    let b_id = Id(200 << 100);
    let mut a = Node::new(a_id, cfg());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let mut b = Node::new(b_id, cfg());
    // Issue a lookup before b joins: it must not be lost or delivered.
    let actions = step(
        &mut b,
        0,
        Event::Lookup {
            key: Id(5),
            payload: 1,
        },
    );
    assert!(
        actions.is_empty(),
        "inactive node neither routes nor delivers"
    );
    let q = start_join(&mut b, Some(a_id), 1);
    let mut nodes = vec![a, b];
    let actions = pump(&mut nodes, q, 2);
    // After activation the buffered lookup is routed; key 5's root is a
    // (10<<100) or b — either delivery or a forward happened.
    assert!(
        actions
            .iter()
            .any(|act| matches!(act, Action::Deliver(_) | Action::BecameActive)),
        "buffered lookup processed after activation"
    );
}

#[test]
fn probe_timeout_marks_faulty_and_repairs() {
    let (mut nodes, _) = trio();
    // Kill a's right neighbour: long silence makes a's heartbeat tick start
    // a suspicion probe (public trigger for what used to be a private
    // `probe()` call); the probe then times out until exhaustion.
    let a = &mut nodes[0];
    let right = a.leaf_set().right_neighbor().expect("trio has neighbours");
    let probed = step(
        &mut nodes[0],
        10_000_000_000,
        Event::Timer(TimerKind::Heartbeat),
    )
    .iter()
    .any(|act| {
        matches!(
            act,
            Action::Send { to, msg: Message::LsProbe { .. } } if *to == right
        )
    });
    assert!(
        probed,
        "silence triggers a suspicion probe of the right neighbour"
    );
    let mut now = 10_003_000_000;
    for attempt in 0..=MAX_PROBE_RETRIES {
        step(
            &mut nodes[0],
            now,
            Event::Timer(TimerKind::ProbeTimeout {
                target: right,
                attempt,
            }),
        );
        now += 3_000_000;
    }
    assert!(
        !nodes[0].leaf_set().contains(right),
        "exhausted probe evicts"
    );
    assert!(!nodes[0].routing_table().contains(right));
}

#[test]
fn ack_timeout_reroutes_after_retx_budget() {
    let (mut nodes, ids) = trio();
    let b_id = ids[1];
    // a sends a lookup rooted at b; b never acks (we just don't deliver the
    // message); the ack timeout must retransmit, then exclude and reroute.
    let key = Id((200 << 100) + 1);
    let mut lookup_id = None;
    for act in step(&mut nodes[0], 100, Event::Lookup { key, payload: 9 }) {
        if let Action::Send {
            to,
            msg: Message::Lookup { id, .. },
        } = act
        {
            assert_eq!(to, b_id);
            lookup_id = Some(id);
        }
    }
    let id = lookup_id.expect("lookup forwarded to b");
    // b is the key's root, so the first timeouts retransmit to b itself.
    let mut now = 1_000_000;
    for attempt in 0..ROOT_RETX_ATTEMPTS {
        let retx = step(
            &mut nodes[0],
            now,
            Event::Timer(TimerKind::AckTimeout {
                lookup: id,
                attempt,
            }),
        )
        .iter()
        .any(|a| {
            matches!(
                a,
                Action::Send {
                    to,
                    msg: Message::Lookup {
                        is_retransmit: true,
                        ..
                    },
                } if *to == b_id
            )
        });
        assert!(retx, "attempt {attempt} must retransmit to the root");
        now += 1_000_000;
    }
    // Budget exhausted: the root is excluded and the lookup resolves at the
    // now-closest node — never another copy to the silent root.
    let actions = step(
        &mut nodes[0],
        now,
        Event::Timer(TimerKind::AckTimeout {
            lookup: id,
            attempt: ROOT_RETX_ATTEMPTS,
        }),
    );
    let to_root = actions
        .iter()
        .any(|a| matches!(a, Action::Send { to, msg: Message::Lookup { .. } } if *to == b_id));
    assert!(!to_root, "excluded root receives no further copies");
    let resolved = actions.iter().any(|a| {
        matches!(
            a,
            Action::Send {
                msg: Message::Lookup {
                    is_retransmit: true,
                    ..
                },
                ..
            }
        ) || matches!(a, Action::Deliver(_))
    });
    assert!(resolved, "lookup resolved after budget: {actions:?}");
}

#[test]
fn root_retransmissions_stop_at_the_leaf_set_detection_time() {
    // The consistency-first policy retries a silent root until its failure
    // verdict. Here the root's probe never resolves (it "answers probes"
    // while every ack is lost), so only the chain's time limit ends it,
    // long before the 13-attempt budget runs out.
    let run = Obs::new(0.0, 16);
    let (mut nodes, ids) = trio_obs(
        Config {
            exclude_root_on_ack_timeout: false,
            ..cfg()
        },
        run.clone(),
    );
    let dropped = || run.snapshot().counter("lookup.drop.too-many-reroutes");
    let b_id = ids[1];
    let key = Id((200 << 100) + 1);
    let first_sent = 100;
    let id = step(&mut nodes[0], first_sent, Event::Lookup { key, payload: 9 })
        .into_iter()
        .find_map(|a| match a {
            Action::Send {
                to,
                msg: Message::Lookup { id, .. },
            } if to == b_id => Some(id),
            _ => None,
        })
        .expect("lookup forwarded to the root b");
    let limit = nodes[0].config().leaf_set_detection_us();
    let timeout = |node: &mut Node, now, attempt| {
        step(
            node,
            now,
            Event::Timer(TimerKind::AckTimeout {
                lookup: id,
                attempt,
            }),
        )
    };
    let copy_to_root = |actions: &[Action]| {
        actions
            .iter()
            .any(|a| matches!(a, Action::Send { to, msg: Message::Lookup { .. } } if *to == b_id))
    };
    let a0 = timeout(&mut nodes[0], first_sent + 1_000_000, 0);
    assert!(copy_to_root(&a0), "first timeout retransmits: {a0:?}");
    let a1 = timeout(&mut nodes[0], first_sent + limit - 1, 1);
    assert!(copy_to_root(&a1), "still inside the limit: {a1:?}");
    assert_eq!(dropped(), 0);
    let a2 = timeout(&mut nodes[0], first_sent + limit, 2);
    assert!(!copy_to_root(&a2), "no copy once the limit has passed");
    assert_eq!(
        dropped(),
        1,
        "chain ends as when the budget runs out: {a2:?}"
    );
}

#[test]
fn heartbeat_goes_to_left_neighbor_only() {
    let (mut nodes, _) = trio();
    // Fire b's heartbeat far in the future (no suppression from recent
    // traffic).
    let b = &mut nodes[1];
    let left = b.leaf_set().left_neighbor().unwrap();
    let hb_targets: Vec<NodeId> = step(b, 10_000_000_000, Event::Timer(TimerKind::Heartbeat))
        .into_iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: Message::Heartbeat { .. },
            } => Some(to),
            _ => None,
        })
        .collect();
    assert_eq!(hb_targets, vec![left], "single heartbeat to left neighbour");
}

#[test]
fn suppression_skips_heartbeat_after_recent_send() {
    let a_id = Id(10 << 100);
    let b_id = Id(200 << 100);
    let mut a = Node::new(a_id, cfg());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let mut b = Node::new(b_id, cfg());
    let qb = start_join(&mut b, Some(a_id), 1);
    let mut nodes = vec![a, b];
    pump(&mut nodes, qb, 2);
    let b = &mut nodes[1];
    let left = b.leaf_set().left_neighbor().unwrap();
    // Answering the neighbour's probe counts as recent traffic to it.
    let replied = step(
        b,
        999_000_000,
        Event::Receive {
            from: left,
            msg: Message::RtProbe { nonce: 1 },
        },
    )
    .iter()
    .any(|a| matches!(a, Action::Send { to, msg: Message::RtProbeReply { .. } } if *to == left));
    assert!(replied);
    let heartbeats = step(b, 1_000_000_000, Event::Timer(TimerKind::Heartbeat))
        .iter()
        .filter(|a| {
            matches!(
                a,
                Action::Send {
                    msg: Message::Heartbeat { .. },
                    ..
                }
            )
        })
        .count();
    assert_eq!(heartbeats, 0, "recent traffic suppresses the heartbeat");
}

#[test]
fn rt_probe_tick_probes_unheard_entries() {
    let a_id = Id(10 << 100);
    let b_id = Id(200 << 100);
    let mut a = Node::new(a_id, cfg());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let mut b = Node::new(b_id, cfg());
    let qb = start_join(&mut b, Some(a_id), 1);
    let mut nodes = vec![a, b];
    pump(&mut nodes, qb, 2);
    let a = &mut nodes[0];
    assert!(a.routing_table().contains(b_id));
    let probed = step(a, 10_000_000_000, Event::Timer(TimerKind::RtProbeTick))
        .iter()
        .any(|act| {
            matches!(
                act,
                Action::Send {
                    to,
                    msg: Message::RtProbe { .. }
                } if *to == b_id
            )
        });
    assert!(probed, "stale routing-table entry gets a liveness probe");
}

#[test]
fn dead_nodes_are_not_propagated_through_gossip() {
    // A node learns about a candidate via RtRowAnnounce; it must measure
    // (direct contact) before inserting, so a dead candidate never enters
    // the table.
    let a_id = Id(10 << 100);
    let dead = Id(400 << 100);
    let mut a = Node::new(a_id, cfg());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let actions = step(
        &mut a,
        1,
        Event::Receive {
            from: Id(1),
            msg: Message::RtRowAnnounce {
                row: 0,
                entries: vec![dead],
            },
        },
    );
    assert!(
        !a.routing_table().contains(dead),
        "gossiped candidate only enters after a successful distance probe"
    );
    // It must have started a distance measurement instead.
    let probing = actions.iter().any(|act| {
        matches!(
            act,
            Action::Send {
                to,
                msg: Message::DistanceProbe { .. }
            } if *to == dead
        )
    });
    assert!(probing);
}

#[test]
fn self_tune_updates_period() {
    let mut a = Node::new(Id(1), cfg());
    let mut fx = Effects::new();
    a.handle(0, Event::Join { seed: None }, &mut fx);
    let before = a.t_rt_us();
    step(&mut a, 60_000_000, Event::Timer(TimerKind::SelfTune));
    // Singleton overlay: no failures, N=1 → probing effectively off.
    assert!(a.t_rt_us() >= before);
}

#[test]
fn rt_row_request_returns_the_row() {
    let (mut nodes, ids) = trio();
    let reply = step(
        &mut nodes[0],
        100,
        Event::Receive {
            from: ids[1],
            msg: Message::RtRowRequest { row: 0 },
        },
    )
    .into_iter()
    .find_map(|a| match a {
        Action::Send {
            to,
            msg: Message::RtRowReply { row, entries },
        } if to == ids[1] => Some((row, entries)),
        _ => None,
    });
    let (row, entries) = reply.expect("row reply sent");
    assert_eq!(row, 0);
    assert_eq!(entries, nodes[0].routing_table().row_ids(0));
}

#[test]
fn join_request_contributes_rows_and_self() {
    let (mut nodes, ids) = trio();
    // A brand-new joiner's request through node 0.
    let joiner = Id(250 << 100);
    let mut saw = false;
    for a in step(
        &mut nodes[0],
        100,
        Event::Receive {
            from: joiner,
            msg: Message::JoinRequest {
                joiner,
                rows: Vec::new(),
                hops: 0,
            },
        },
    ) {
        match a {
            Action::Send {
                msg: Message::JoinReply { rows, leaf_set },
                to,
            } => {
                assert_eq!(to, joiner);
                assert!(leaf_set.contains(&ids[0]), "root includes itself");
                assert!(rows.iter().flatten().any(|&n| n == ids[0]));
                saw = true;
            }
            Action::Send {
                msg: Message::JoinRequest { rows, .. },
                ..
            } => {
                assert!(rows.iter().flatten().any(|&n| n == ids[0]));
                saw = true;
            }
            _ => {}
        }
    }
    assert!(saw, "join request handled");
}

#[test]
fn distance_report_inserts_into_routing_table() {
    let (mut nodes, _ids) = trio();
    let stranger = Id(0xdead << 100);
    step(
        &mut nodes[0],
        100,
        Event::Receive {
            from: stranger,
            msg: Message::DistanceReport { rtt_us: 1234 },
        },
    );
    let e = nodes[0]
        .routing_table()
        .entry_of(stranger)
        .expect("symmetric report inserts the sender");
    assert_eq!(e.distance_us, 1234);
}

#[test]
fn duplicate_lookups_are_acked_but_not_reprocessed() {
    let (mut nodes, ids) = trio();
    let id = LookupId {
        src: ids[1],
        seq: 9,
    };
    let lookup = Message::Lookup {
        id,
        key: Id(5),
        payload: 0,
        hops: 1,
        issued_at_us: 50,
        is_retransmit: false,
        wants_acks: true,
    };
    let first = step(
        &mut nodes[0],
        100,
        Event::Receive {
            from: ids[1],
            msg: lookup.clone(),
        },
    );
    assert!(first.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: Message::Ack { .. },
            ..
        }
    )));
    let second = step(
        &mut nodes[0],
        200,
        Event::Receive {
            from: ids[2],
            msg: lookup,
        },
    );
    assert!(
        second.iter().all(|a| matches!(
            a,
            Action::Send {
                msg: Message::Ack { .. },
                ..
            }
        )),
        "duplicate only acked, got {second:?}"
    );
}

#[test]
fn join_buffer_overflow_reports_drops() {
    let run = Obs::new(0.0, 16);
    let mut n = Node::with_obs(Id(5), cfg(), run.clone());
    // Not joined yet: local lookups buffer; the one past the cap overflows.
    for i in 0..=JOIN_BUFFER_CAP as u64 {
        step(
            &mut n,
            i,
            Event::Lookup {
                key: Id(i as u128),
                payload: i,
            },
        );
    }
    let s = run.snapshot();
    assert_eq!(s.counter("lookup.drop.buffer-overflow"), 1);
    let all_drops: u64 = DROP_REASON_COUNTERS.iter().map(|c| s.counter(c)).sum();
    assert_eq!(all_drops, 1);
}

#[test]
fn stranded_lookup_is_rerouted_when_its_next_hop_is_declared_dead() {
    let run = Obs::new(0.0, 16);
    let (mut nodes, ids) = trio_obs(cfg(), run.clone());
    let b_id = ids[1];
    let key = Id((200 << 100) + 1);
    let id = step(&mut nodes[0], 100, Event::Lookup { key, payload: 9 })
        .into_iter()
        .find_map(|a| match a {
            Action::Send {
                to,
                msg: Message::Lookup { id, .. },
            } if to == b_id => Some(id),
            _ => None,
        })
        .expect("lookup forwarded to the root b");
    // The missed ack starts a probe of b and retransmits the lookup to b,
    // where it stays pending.
    let mut now = 1_000_000;
    step(
        &mut nodes[0],
        now,
        Event::Timer(TimerKind::AckTimeout {
            lookup: id,
            attempt: 0,
        }),
    );
    // b never answers: its probe runs out of retries, and the lookup's next
    // AckTimeout is never fired.
    let mut last = Vec::new();
    for attempt in 0..=MAX_PROBE_RETRIES {
        now += 3_000_000;
        last = step(
            &mut nodes[0],
            now,
            Event::Timer(TimerKind::ProbeTimeout {
                target: b_id,
                attempt,
            }),
        );
    }
    assert!(!nodes[0].leaf_set().contains(b_id), "b declared dead");
    let resent = last.iter().any(|a| {
        matches!(
            a,
            Action::Send {
                to,
                msg: Message::Lookup { id: l, is_retransmit: true, .. },
            } if *to != b_id && *l == id
        )
    });
    assert!(resent, "stranded lookup re-sent past b at once: {last:?}");
    let s = run.snapshot();
    assert_eq!(s.counter("lookup.stranded-reroute"), 1);
    let all_drops: u64 = DROP_REASON_COUNTERS.iter().map(|c| s.counter(c)).sum();
    assert_eq!(all_drops, 0);
}

#[test]
fn heartbeat_silence_triggers_suspect_probe() {
    let (mut nodes, _) = trio();
    let b = &mut nodes[1];
    let right = b.leaf_set().right_neighbor().unwrap();
    // Nothing heard from the right neighbour since the join (~t=4): firing
    // the heartbeat far past Tls+To finds a long silence.
    let probed = step(b, 100_000_000, Event::Timer(TimerKind::Heartbeat))
        .iter()
        .any(|a| {
            matches!(
                a,
                Action::Send {
                    to,
                    msg: Message::LsProbe { .. }
                } if *to == right
            )
        });
    assert!(probed, "silent right neighbour must be probed");
}

#[test]
fn leave_announces_and_receivers_remove_instantly() {
    let (mut nodes, ids) = trio();
    // Node 1 leaves gracefully.
    let targets: Vec<NodeId> = step(&mut nodes[1], 100, Event::Leave)
        .into_iter()
        .filter_map(|a| match a {
            Action::Send {
                to,
                msg: Message::Leaving,
            } => Some(to),
            _ => None,
        })
        .collect();
    assert!(targets.contains(&ids[0]) && targets.contains(&ids[2]));
    assert!(!nodes[1].is_active());
    // Node 0 receives the announcement: instant removal, no probes to the
    // leaver.
    let actions = step(
        &mut nodes[0],
        200,
        Event::Receive {
            from: ids[1],
            msg: Message::Leaving,
        },
    );
    assert!(!nodes[0].leaf_set().contains(ids[1]));
    assert!(!nodes[0].routing_table().contains(ids[1]));
    let probes_to_leaver = actions
        .iter()
        .filter(|a| matches!(a, Action::Send { to, .. } if *to == ids[1]))
        .count();
    assert_eq!(probes_to_leaver, 0, "no probes to an announced leaver");
}

#[test]
fn inactive_node_replies_to_nn_requests() {
    let mut n = Node::new(Id(5), cfg());
    // Never joined; a joiner may still ask for its (empty) leaf set.
    let actions = step(
        &mut n,
        10,
        Event::Receive {
            from: Id(9),
            msg: Message::NnLeafSetRequest,
        },
    );
    assert!(actions.iter().any(|a| matches!(
        a,
        Action::Send {
            msg: Message::NnLeafSetReply { .. },
            ..
        }
    )));
}

#[test]
fn rt_probe_suppressed_when_recently_heard() {
    let (mut nodes, ids) = trio();
    let a = &mut nodes[0];
    assert!(a.routing_table().contains(ids[1]));
    let now = 10_000_000_000;
    // Hearing anything from the peer one microsecond ago suppresses its
    // liveness probe on the next tick.
    step(
        a,
        now - 1,
        Event::Receive {
            from: ids[1],
            msg: Message::Heartbeat { trt_hint: None },
        },
    );
    let probed = step(a, now, Event::Timer(TimerKind::RtProbeTick))
        .iter()
        .any(|act| {
            matches!(
                act,
                Action::Send {
                    to,
                    msg: Message::RtProbe { .. }
                } if *to == ids[1]
            )
        });
    assert!(!probed, "fresh traffic suppresses the liveness probe");
}

#[test]
fn probe_reply_samples_rtt_for_rto() {
    let (mut nodes, ids) = trio();
    let a = &mut nodes[0];
    // Fire the tick long after the join so suppression-by-recent-traffic
    // does not apply.
    let nonce = step(a, 10_000_000_000, Event::Timer(TimerKind::RtProbeTick))
        .into_iter()
        .find_map(|act| match act {
            Action::Send {
                to,
                msg: Message::RtProbe { nonce },
            } if to == ids[1] => Some(nonce),
            _ => None,
        });
    let nonce = nonce.expect("stale entry probed");
    // A 40 ms round trip gives the estimator a sample far below the initial
    // RTO; the next lookup forwarded to that peer must arm a tighter timer.
    step(
        a,
        10_000_040_000,
        Event::Receive {
            from: ids[1],
            msg: Message::RtProbeReply {
                nonce,
                trt_hint: None,
            },
        },
    );
    let key = Id((200 << 100) + 3); // rooted at ids[1]
    let armed = step(a, 10_001_000_000, Event::Lookup { key, payload: 0 })
        .into_iter()
        .find_map(|act| match act {
            Action::SetTimer {
                delay_us,
                kind: TimerKind::AckTimeout { .. },
            } => Some(delay_us),
            _ => None,
        });
    let rto = armed.expect("forwarded lookup arms an ack timeout");
    assert!(
        rto < nodes[0].config().ack_rto_initial_us,
        "estimator sample tightened the RTO: {rto}"
    );
}
