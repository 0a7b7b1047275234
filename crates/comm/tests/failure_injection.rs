//! Failure injection: the runtime must surface dead peers as errors, not
//! hangs — a production collective library's most important property.

use std::io::Write;
use std::net::TcpStream;
use std::thread;
use std::time::{Duration, Instant};

use preduce_comm::control::{control_links, ControlPlane, GroupAssignment, WorkerControlPlane};
use preduce_comm::mesh::{GroupAverager, MeshEndpoint};
use preduce_comm::{CommError, CommWorld};

#[test]
fn collective_with_dead_peer_times_out() {
    // Rank 1 never joins: rank 0's group average must fail with Timeout
    // (the channel stays open via rank 0's own sender clone, so
    // disconnection cannot be detected — only the timeout can).
    let mut eps = CommWorld::new(2).into_endpoints();
    let _e1 = eps.pop().unwrap(); // kept alive but silent
    let mut e0 = eps.pop().unwrap();
    e0.set_timeout(Duration::from_millis(50));
    let mut data = vec![1.0f32; 8];
    let err = e0
        .group_weighted_average(&[0, 1], 0, &mut data, &[0.5, 0.5])
        .unwrap_err();
    assert!(matches!(err, CommError::Timeout { peer: 1, .. }), "{err:?}");
}

#[test]
fn peer_panic_mid_collective_does_not_hang_survivors() {
    // A group of three whose member or leader "crashed" before the average
    // (its endpoint was dropped inside a thread that exited): both
    // survivors return with an error instead of hanging.
    let third = [1.0f32 / 3.0; 3];
    let survivors = |group: [usize; 3]| {
        let mut eps = CommWorld::new(3).into_endpoints();
        for ep in &mut eps {
            ep.set_timeout(Duration::from_millis(100));
        }
        let e2 = eps.pop().unwrap();
        thread::spawn(move || drop(e2)).join().unwrap();
        let threads: Vec<_> = eps
            .into_iter()
            .map(|mut ep| {
                thread::spawn(move || {
                    let mut data = vec![ep.rank() as f32; 6];
                    ep.group_weighted_average(&group, 0, &mut data, &third)
                        .unwrap_err()
                })
            })
            .collect();
        threads
            .into_iter()
            .map(|t| t.join().unwrap())
            .collect::<Vec<_>>()
    };
    // Dead member: the leader waits for it and times out naming it; the
    // other member waits for the leader's reply and times out naming the
    // leader, which is all it can know.
    let errs = survivors([0, 1, 2]);
    assert!(
        matches!(errs[0], CommError::Timeout { peer: 2, .. }),
        "{errs:?}"
    );
    assert!(
        matches!(errs[1], CommError::Timeout { peer: 0, .. }),
        "{errs:?}"
    );
    // Dead leader: every member's first send finds it gone, with no
    // timeout to wait out.
    let errs = survivors([2, 0, 1]);
    assert_eq!(errs, vec![CommError::Disconnected { peer: 2 }; 2]);
}

#[test]
fn a_member_lost_mid_average_leaves_no_partial_sum() {
    // Rank 2 contributes the first of the three segments and dies: the
    // leader folds and returns segment 0 to rank 1, then finds rank 2
    // gone. Both survivors end with every element either their own value
    // or the finished average, never a partial sum.
    let mut eps = CommWorld::new(3).into_endpoints();
    for ep in &mut eps {
        ep.set_timeout(Duration::from_millis(200));
    }
    let e2 = eps.pop().unwrap();
    let mut e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    let third = [1.0f32 / 3.0; 3];
    // Six elements in three segments of two; segment 0 travels on the
    // base tag.
    e2.send(0, 0, vec![8.0, 8.0]).unwrap();
    drop(e2);
    let member = thread::spawn(move || {
        let mut data = vec![4.0f32; 6];
        let err = e1
            .group_weighted_average(&[0, 1, 2], 0, &mut data, &third)
            .unwrap_err();
        (err, data)
    });
    let mut data = vec![2.0f32; 6];
    let err = e0
        .group_weighted_average(&[0, 1, 2], 0, &mut data, &third)
        .unwrap_err();
    assert_eq!(err, CommError::Disconnected { peer: 2 });
    let average = 2.0 / 3.0 + 4.0 / 3.0 + 8.0 / 3.0;
    assert_eq!(data, [average, average, 2.0, 2.0, 2.0, 2.0]);
    let (err, data) = member.join().unwrap();
    assert!(matches!(err, CommError::Timeout { peer: 0, .. }), "{err:?}");
    assert_eq!(data, [average, average, 4.0, 4.0, 4.0, 4.0]);
}

#[test]
fn controller_death_is_visible_to_workers() {
    let (ctl, mut workers) = control_links(2);
    drop(ctl);
    // Sending a ready signal into a dead controller errors immediately.
    let err = workers[0].send_ready(1).unwrap_err();
    assert!(matches!(err, CommError::Disconnected { .. }), "{err:?}");
}

#[test]
fn worker_death_is_visible_to_controller() {
    let (mut ctl, mut workers) = control_links(2);
    let _w1 = workers.pop().unwrap();
    let dead = workers.pop().unwrap();
    drop(dead);
    let err = ctl
        .send_assignment(
            0,
            GroupAssignment {
                group: vec![0],
                weights: vec![1.0],
                base_tag: 0,
                new_iteration: 0,
            },
        )
        .unwrap_err();
    assert!(
        matches!(err, CommError::Disconnected { peer: 0 }),
        "{err:?}"
    );
}

#[test]
fn mismatched_payload_lengths_are_rejected_not_corrupted() {
    // Two ranks enter the same average with different vector lengths:
    // the leader must observe PayloadMismatch instead of silently folding
    // a short segment.
    let mut eps = CommWorld::new(2).into_endpoints();
    let mut e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    e0.set_timeout(Duration::from_millis(500));
    e1.set_timeout(Duration::from_millis(500));

    let half = [0.5f32, 0.5];
    let t1 = thread::spawn(move || {
        let mut data = vec![1.0f32; 100];
        e1.group_weighted_average(&[0, 1], 0, &mut data, &half)
    });
    let mut data = vec![1.0f32; 10];
    let r0 = e0.group_weighted_average(&[0, 1], 0, &mut data, &half);
    let r1 = t1.join().unwrap();
    assert!(
        r0.is_err() || r1.is_err(),
        "length mismatch went unnoticed: {r0:?} {r1:?}"
    );
    let mismatch = [r0, r1]
        .into_iter()
        .filter_map(|r| r.err())
        .any(|e| matches!(e, CommError::PayloadMismatch { .. }));
    assert!(mismatch, "expected a PayloadMismatch error");
}

#[test]
fn stash_survives_interleaved_failures() {
    // A message for a later tag arrives, then the peer dies: the stashed
    // message must still be deliverable even though new receives fail.
    let mut eps = CommWorld::new(2).into_endpoints();
    let e1 = eps.pop().unwrap();
    let mut e0 = eps.pop().unwrap();
    e0.set_timeout(Duration::from_millis(50));

    e1.send(0, 7, vec![42.0]).unwrap();
    drop(e1);

    // Tag 3 never arrives → timeout; tag 7 is stashed → succeeds.
    assert!(e0.recv(1, 3).is_err());
    assert_eq!(e0.recv(1, 7).unwrap(), vec![42.0]);
}

#[test]
fn mesh_member_killed_mid_payload_errors_the_leader_and_spares_the_endpoint() {
    let mut leader = MeshEndpoint::bind(0, "127.0.0.1:0").unwrap();
    let mut member = MeshEndpoint::bind(1, "127.0.0.1:0").unwrap();
    let roster = [leader.local_addr(), member.local_addr()].map(|a| a.to_string());
    leader.set_roster(&roster).unwrap();
    member.set_roster(&roster).unwrap();

    // "Rank 1" dies after its request header and half of its 8-float
    // payload: request = [base_tag u64 BE][rank u32 BE][len u32 BE][f32 LE…].
    let mut dying = TcpStream::connect(leader.local_addr()).unwrap();
    let mut request = Vec::new();
    request.extend_from_slice(&21u64.to_be_bytes());
    request.extend_from_slice(&1u32.to_be_bytes());
    request.extend_from_slice(&8u32.to_be_bytes());
    request.extend_from_slice(&[0u8; 16]);
    dying.write_all(&request).unwrap();
    drop(dying);

    let own = vec![3.0f32; 8];
    let mut data = own.clone();
    let start = Instant::now();
    let err = leader
        .group_weighted_average(&[0, 1], 21, &mut data, &[0.5, 0.5])
        .unwrap_err();
    assert_eq!(err, CommError::Disconnected { peer: 1 });
    assert!(start.elapsed() < Duration::from_secs(2), "leader hung");
    assert_eq!(data, own, "a torn segment must not reach the model");

    // The same endpoint leads the live rank 1 next.
    let joined = thread::spawn(move || {
        let mut data = vec![1.0f32; 8];
        member
            .group_weighted_average(&[0, 1], 22, &mut data, &[0.5, 0.5])
            .map(|()| data)
    });
    leader
        .group_weighted_average(&[0, 1], 22, &mut data, &[0.5, 0.5])
        .unwrap();
    assert_eq!(data, vec![2.0f32; 8]);
    assert_eq!(joined.join().unwrap().unwrap(), data);
}
