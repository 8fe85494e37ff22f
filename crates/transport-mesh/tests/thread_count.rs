//! The mesh runs on the caller's thread.
//!
//! One datagram is in flight at a time, so a node needs a socket and
//! nothing else. This is the only test of its binary on purpose: the
//! test harness starts a thread per concurrently running test, which
//! would move the count read here.

#![cfg(target_os = "linux")]

use manet_sim::{NodeId, WireShadow};
use proto_io::MsgCategory;
use transport_mesh::MeshShadow;

/// The `Threads:` line of `/proc/self/status`.
fn os_threads() -> u32 {
    let status = std::fs::read_to_string("/proc/self/status").expect("procfs is mounted");
    let line = status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .expect("status names a thread count");
    line.trim().parse().expect("thread count is a number")
}

#[test]
fn a_mesh_run_starts_no_threads() {
    const NODES: u64 = 20;
    let before = os_threads();
    let mut mesh = MeshShadow::<u64>::new();
    for i in 0..200u64 {
        let from = NodeId::new(i % NODES);
        let to = NodeId::new((i * 7 + 3) % NODES);
        let got = mesh.carry(&[from, to], MsgCategory::Maintenance, &i);
        assert_eq!(got, i);
    }
    assert_eq!(mesh.socket_count(), NODES as usize);
    assert_eq!(mesh.stats().datagrams, 200);
    assert_eq!(
        os_threads(),
        before,
        "a node is a socket, not a thread: the count must not move while the mesh is alive"
    );
}
