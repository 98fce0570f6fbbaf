//! The open-loop generator times each request from when it was due, so
//! one stalled reply shows in the latency of every request queued behind
//! it, not only in its own.

use std::time::Duration;

use aqks_perfbench::openloop;

#[test]
fn a_stall_delays_the_requests_queued_behind_it() {
    let interval = Duration::from_millis(2);
    let stall = Duration::from_millis(40);
    // One client, so requests 3.. wait for the stalled request 2.
    let mut clients = [()];
    let samples = openloop::run(12, interval, &mut clients, |_: &mut (), i| {
        if i == 2 {
            std::thread::sleep(stall);
        }
        i
    });
    assert_eq!(samples.iter().map(|s| s.result).collect::<Vec<_>>(), (0..12).collect::<Vec<_>>());
    // Requests before the stall are on time and fast.
    for s in &samples[..2] {
        assert!(s.latency() < Duration::from_millis(15), "{s:?}");
    }
    // Request 3 was due 2 ms after request 2 but could only be sent once
    // the stall ended: its latency counts the wait, though its own
    // service time is near zero.
    let third = &samples[3];
    assert!(third.late() >= stall - interval - Duration::from_millis(1), "{third:?}");
    assert!(third.latency() >= third.late());
    assert!(third.done - third.sent < Duration::from_millis(10), "{third:?}");
    // The backlog drains: each later request is late by less.
    assert!(samples[11].late() < third.late(), "{:?}", samples[11]);
}

#[test]
fn no_request_is_sent_before_it_is_due() {
    let interval = Duration::from_millis(1);
    let mut clients = [(), ()];
    let samples = openloop::run(20, interval, &mut clients, |_: &mut (), i| i);
    for s in &samples {
        assert!(s.sent >= s.due, "{s:?}");
    }
}

#[test]
fn requests_are_spread_round_robin_over_clients() {
    let mut clients = [Vec::new(), Vec::new()];
    openloop::run(6, Duration::from_micros(100), &mut clients, |seen: &mut Vec<usize>, i| {
        seen.push(i);
    });
    assert_eq!(clients[0], [0, 2, 4]);
    assert_eq!(clients[1], [1, 3, 5]);
}
