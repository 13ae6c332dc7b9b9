//! The poller for targets without epoll: the same three calls as the
//! Linux one, answered by reporting every watched descriptor as possibly
//! ready once per tick, so the server's nonblocking reads do the finding
//! (what the server did everywhere before it had a reactor). Selected by
//! the target, never by configuration (DESIGN.md D17).

use std::io;
use std::os::fd::{AsRawFd, RawFd};
use std::time::Duration;

/// Pause between two scans.
const TICK: Duration = Duration::from_millis(1);

pub(crate) struct Poller {
    watched: Vec<(RawFd, u64)>,
}

impl Poller {
    pub(crate) fn new() -> io::Result<Poller> {
        Ok(Poller {
            watched: Vec::new(),
        })
    }

    pub(crate) fn add(&mut self, fd: &impl AsRawFd, token: u64, _writable: bool) -> io::Result<()> {
        self.watched.push((fd.as_raw_fd(), token));
        Ok(())
    }

    pub(crate) fn remove(&mut self, fd: &impl AsRawFd) -> io::Result<()> {
        self.watched
            .retain(|&(watched, _)| watched != fd.as_raw_fd());
        Ok(())
    }

    pub(crate) fn wait(&mut self, out: &mut Vec<(u64, bool)>, timeout: Duration) -> io::Result<()> {
        std::thread::sleep(timeout.min(TICK));
        out.extend(self.watched.iter().map(|&(_, token)| (token, true)));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::unix::net::UnixStream;

    #[test]
    fn reports_every_watched_descriptor_each_tick() {
        let (a, b) = UnixStream::pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller.add(&a, 1, false).unwrap();
        poller.add(&b, 2, true).unwrap();
        let mut out = Vec::new();
        poller.wait(&mut out, Duration::from_secs(60)).unwrap();
        assert_eq!(out, [(1, true), (2, true)]);
        poller.remove(&a).unwrap();
        out.clear();
        poller.wait(&mut out, Duration::ZERO).unwrap();
        assert_eq!(out, [(2, true)]);
    }
}
