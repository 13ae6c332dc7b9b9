//! Linux readiness: the three `epoll_*` calls, declared by hand because no
//! `libc`/`mio` crate can be fetched and `std` already links the C library
//! that exports them (DESIGN.md D17). Level-triggered: a socket with bytes
//! left after one bounded read is reported again by the next `wait`.

use std::io;
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::os::raw::c_int;
use std::time::Duration;

/// `O_CLOEXEC`, as on every Linux target Rust's tiers 1 and 2 cover.
const EPOLL_CLOEXEC: c_int = 0x80000;
const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLLIN: u32 = 0x001;
const EPOLLOUT: u32 = 0x004;
/// Reports taken per `epoll_wait`; the rest stay queued in the kernel.
const MAX_EVENTS: usize = 256;

/// `struct epoll_event`; the kernel ABI packs it on x86-64 only.
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
struct EpollEvent {
    events: u32,
    token: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, max: c_int, timeout_ms: c_int) -> c_int;
}

fn check(rc: c_int) -> io::Result<c_int> {
    if rc < 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(rc)
}

/// One epoll instance, owned by the ingest thread that waits on it.
pub(crate) struct Poller {
    epfd: OwnedFd,
    events: Vec<EpollEvent>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        // SAFETY: no pointer arguments; the result is checked.
        let fd = check(unsafe { epoll_create1(EPOLL_CLOEXEC) })?;
        // SAFETY: `fd` is a fresh, valid descriptor nothing else owns.
        let epfd = unsafe { OwnedFd::from_raw_fd(fd) };
        let events = vec![EpollEvent::default(); MAX_EVENTS];
        Ok(Poller { epfd, events })
    }

    fn ctl(&mut self, op: c_int, fd: &impl AsRawFd, mut event: EpollEvent) -> io::Result<()> {
        let (epfd, fd) = (self.epfd.as_raw_fd(), fd.as_raw_fd());
        // SAFETY: `event` outlives the call, which only reads it (and
        // ignores it for `EPOLL_CTL_DEL`); both descriptors are open.
        check(unsafe { epoll_ctl(epfd, op, fd, &mut event) }).map(drop)
    }

    /// Watch `fd` for reading (and writing, if `writable`); reports carry `token`.
    pub(crate) fn add(&mut self, fd: &impl AsRawFd, token: u64, writable: bool) -> io::Result<()> {
        let events = EPOLLIN | if writable { EPOLLOUT } else { 0 };
        self.ctl(EPOLL_CTL_ADD, fd, EpollEvent { events, token })
    }

    pub(crate) fn remove(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, EpollEvent::default())
    }

    /// Block until something is ready or `timeout` passes, appending
    /// `(token, readable)` per ready descriptor (at most [`MAX_EVENTS`]);
    /// `readable` is false for a report of writability alone.
    pub(crate) fn wait(&mut self, out: &mut Vec<(u64, bool)>, timeout: Duration) -> io::Result<()> {
        // Round up: a sub-millisecond remainder must not become a spin.
        let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
        let (epfd, buf) = (self.epfd.as_raw_fd(), self.events.as_mut_ptr());
        let n = loop {
            // SAFETY: `buf` is a live buffer of exactly `MAX_EVENTS`
            // entries, which is the count the kernel is told it may fill.
            match check(unsafe { epoll_wait(epfd, buf, MAX_EVENTS as c_int, ms) }) {
                Ok(n) => break n as usize,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        };
        for ev in self.events.iter().take(n) {
            // Packed: copy the fields out, never borrow them. EPOLLERR and
            // EPOLLHUP count as readable and surface through the next read.
            let (events, token) = (ev.events, ev.token);
            out.push((token, events & !EPOLLOUT != 0));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;
    use std::os::unix::net::UnixStream;
    use std::time::Instant;

    #[test]
    fn reports_readable_and_writable_descriptors_and_times_out_on_none() {
        let (a, mut b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&a, 7, false).unwrap();
        let mut out = Vec::new();
        let t = Instant::now();
        poller.wait(&mut out, Duration::from_millis(30)).unwrap();
        assert!(out.is_empty(), "nothing written yet");
        assert!(
            t.elapsed() >= Duration::from_millis(30),
            "blocked for the timeout"
        );

        b.write_all(b"x").unwrap();
        poller.wait(&mut out, Duration::from_secs(60)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], (7, true));
        // Level-triggered: unread bytes are reported again.
        out.clear();
        poller.wait(&mut out, Duration::from_secs(60)).unwrap();
        assert_eq!(out.len(), 1);

        // Writability alone is a report that is not `readable`.
        poller.add(&b, 8, true).unwrap();
        poller.remove(&a).unwrap();
        out.clear();
        poller.wait(&mut out, Duration::from_secs(60)).unwrap();
        assert_eq!(out.len(), 1);
        assert_eq!(out[0], (8, false));
        assert!(poller.remove(&a).is_err(), "already removed");
    }
}
