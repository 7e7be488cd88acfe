//! The `epoll` calls `std` does not expose, declared `extern "C"` against
//! the C library `std` already links, behind a safe wrapper. Linux only.

use std::io::{Error, ErrorKind};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::time::Duration;

/// `struct epoll_event`, which only x86-64 packs.
#[derive(Clone, Copy, Default)]
#[cfg_attr(target_arch = "x86_64", repr(C, packed))]
#[cfg_attr(not(target_arch = "x86_64"), repr(C))]
pub(crate) struct EpollEvent {
    pub(crate) events: u32,
    pub(crate) token: u64,
}

extern "C" {
    fn epoll_create1(flags: i32) -> i32;
    fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
    /// `epoll_wait` with a `struct timespec` timeout — `[tv_sec,
    /// tv_nsec]` on 64-bit Linux — since 5.11 / glibc 2.35; a timeout
    /// in milliseconds cannot wait for a 1 ms tick.
    fn epoll_pwait2(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout: *const [i64; 2],
        sigmask: *const u8,
    ) -> i32;
}

const EPOLL_CLOEXEC: i32 = 0o2000000;
pub(crate) const EPOLL_CTL_ADD: i32 = 1;
pub(crate) const EPOLL_CTL_DEL: i32 = 2;
pub(crate) const EPOLLIN: u32 = 0x1;
pub(crate) const EPOLLOUT: u32 = 0x4;

/// An epoll instance, closed when dropped. Level-triggered throughout: a
/// descriptor left with unread bytes or a pending accept is reported
/// again next turn.
pub(crate) struct Epoll(OwnedFd);

impl Epoll {
    pub(crate) fn new() -> Self {
        // SAFETY: the call takes no pointer.
        let fd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
        assert!(fd >= 0, "epoll_create1: {}", Error::last_os_error());
        // SAFETY: `fd` is open, as just checked, and nobody else's yet.
        Epoll(unsafe { OwnedFd::from_raw_fd(fd) })
    }

    /// `EPOLL_CTL_ADD`: report `fd` as `token` while it has any of
    /// `events`; `EPOLL_CTL_DEL`: stop (as closing `fd` also does).
    pub(crate) fn ctl(&self, op: i32, fd: &impl AsRawFd, events: u32, token: u64) {
        let mut event = EpollEvent { events, token };
        // SAFETY: `event` is a live `epoll_event` for the length of the
        // call, and both descriptors are open: `self` and `fd` own them.
        let rc = unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd.as_raw_fd(), &mut event) };
        assert!(rc == 0, "epoll_ctl({op}): {}", Error::last_os_error());
    }

    /// Block until a descriptor is ready or `timeout` (`None`: for
    /// ever) has passed; returns how many of `events` were filled in.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> usize {
        let timeout = timeout.map(|t| [t.as_secs() as i64, t.subsec_nanos() as i64]);
        let timeout = timeout.as_ref().map_or(std::ptr::null(), |t| t as *const _);
        let (buf, len) = (events.as_mut_ptr(), events.len() as i32);
        // SAFETY: `buf` is writable for `len` entries, `timeout` is null
        // or points at a `timespec` that outlives the call, and a null
        // signal mask leaves the mask alone.
        let ready =
            unsafe { epoll_pwait2(self.0.as_raw_fd(), buf, len, timeout, std::ptr::null()) };
        if ready < 0 {
            let error = Error::last_os_error();
            assert!(
                error.kind() == ErrorKind::Interrupted,
                "epoll_pwait2: {error}"
            );
        }
        ready.max(0) as usize
    }
}
