//! The workspace's one system call that `std` does not wrap: `poll(2)`.
//!
//! The TCP controller in `preduce-comm` waits on every worker's control
//! socket at once, on the thread that schedules the signals. `std` has no
//! readiness wait and the workspace takes no `libc`, so this module
//! declares `poll` itself and exposes it as one safe function. It lives
//! here because this is the one crate allowed `unsafe` (DESIGN.md §10).

use std::ffi::{c_int, c_short};
use std::io;
use std::os::fd::{AsRawFd, BorrowedFd};
use std::time::Duration;

/// `nfds_t` from `<poll.h>`: `unsigned long` in glibc and musl.
#[cfg(target_os = "linux")]
type Nfds = std::ffi::c_ulong;
/// `nfds_t` from `<poll.h>`: `unsigned int` in Bionic, Apple's libc and
/// the BSDs.
#[cfg(any(
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
))]
type Nfds = std::ffi::c_uint;
#[cfg(not(any(
    target_os = "linux",
    target_os = "android",
    target_os = "macos",
    target_os = "ios",
    target_os = "freebsd",
    target_os = "openbsd",
    target_os = "netbsd",
    target_os = "dragonfly"
)))]
compile_error!("declare `nfds_t` from this target's <poll.h> in tensor::sys");

/// `struct pollfd` from `<poll.h>`, laid out alike on every target above.
#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// "There is data to read": `0x001` on every target above.
const POLLIN: c_short = 0x001;

extern "C" {
    fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
}

/// Waits until at least one of `fds` can be read without blocking, or
/// `timeout` passes, and leaves in `ready` the positions (ascending) of
/// the descriptors that can; `ready` is empty after a timeout.
///
/// A socket whose peer hung up or that holds an error counts as ready: a
/// read returns at once then, with EOF or the error. A `None` entry is
/// never ready (poll(2) skips a negative descriptor), so a caller can pass
/// a table with closed slots and read the positions as its own indices.
///
/// `timeout` is rounded *up* to poll's millisecond granularity, so a
/// sub-millisecond wait sleeps a millisecond instead of returning at once,
/// and is capped at `c_int::MAX` milliseconds.
///
/// # Errors
/// The OS error of a failed call. `ErrorKind::Interrupted` means a signal
/// arrived first; whether to wait again is the caller's choice.
pub fn poll_readable<'fd>(
    fds: impl IntoIterator<Item = Option<BorrowedFd<'fd>>>,
    timeout: Duration,
    ready: &mut Vec<usize>,
) -> io::Result<()> {
    ready.clear();
    let mut table: Vec<PollFd> = fds
        .into_iter()
        .map(|fd| PollFd {
            fd: fd.map_or(-1, |fd| fd.as_raw_fd()),
            events: POLLIN,
            revents: 0,
        })
        .collect();
    let nfds = Nfds::try_from(table.len()).map_err(|_| io::ErrorKind::InvalidInput)?;
    let millis = c_int::try_from(timeout.as_nanos().div_ceil(1_000_000)).unwrap_or(c_int::MAX);
    // SAFETY: `table` is a live, exclusively borrowed array of exactly
    // `nfds` `#[repr(C)]` `pollfd`s, the only memory poll reads or writes.
    // Every non-negative descriptor in it came from a `BorrowedFd<'fd>`,
    // and `'fd` outlives this call, so each one is open until poll returns.
    let rc = unsafe { poll(table.as_mut_ptr(), nfds, millis) };
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    ready.extend(
        table
            .iter()
            .enumerate()
            .filter(|(_, p)| p.revents != 0)
            .map(|(i, _)| i),
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsFd;

    fn pair() -> (TcpStream, TcpStream) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let near = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (far, _) = listener.accept().unwrap();
        (near, far)
    }

    #[test]
    fn reports_the_readable_positions_and_skips_closed_slots() {
        let (a, mut a_far) = pair();
        let (b, _b_far) = pair();
        let (c, c_far) = pair();
        a_far.write_all(b"x").unwrap();
        drop(c_far); // a hang-up is readable: the read returns EOF
        let mut ready = vec![99];
        let slots = [Some(a.as_fd()), None, Some(b.as_fd()), Some(c.as_fd())];
        poll_readable(slots, Duration::from_secs(5), &mut ready).unwrap();
        assert_eq!(ready, vec![0, 3]);
    }
}
