//! The `epoll` and `eventfd` calls `std` does not expose, declared
//! `extern "C"` against the C library `std` already links, behind safe
//! wrappers. Linux only.

use std::fs::File;
use std::io::{Error, ErrorKind};
use std::os::fd::{AsRawFd, FromRawFd, OwnedFd};
use std::sync::Arc;
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
    /// `epoll_wait` with a `timespec` (`[tv_sec, tv_nsec]`) timeout, since
    /// 5.11 / glibc 2.35: milliseconds cannot wait for a 1 ms tick.
    fn epoll_pwait2(
        epfd: i32,
        events: *mut EpollEvent,
        maxevents: i32,
        timeout: *const [i64; 2],
        sigmask: *const u8,
    ) -> i32;
    fn eventfd(initval: u32, flags: i32) -> i32;
}

/// `EPOLL_CLOEXEC`, `EFD_CLOEXEC` and `EFD_NONBLOCK`.
const CLOEXEC: i32 = 0o2000000;
const NONBLOCK: i32 = 0o4000;
pub(crate) const EPOLL_CTL_ADD: i32 = 1;
pub(crate) const EPOLL_CTL_MOD: i32 = 3;
pub(crate) const EPOLLIN: u32 = 0x1;
pub(crate) const EPOLLOUT: u32 = 0x4;

/// A handle to an epoll instance, closed when the last is dropped: a
/// loop and its transport share one. Level-triggered: a descriptor left
/// with unread bytes or a pending accept is reported again.
#[derive(Clone)]
pub(crate) struct Epoll(Arc<OwnedFd>);

impl Epoll {
    pub(crate) fn new() -> Self {
        // SAFETY: the call takes no pointer.
        Epoll(Arc::new(owned(
            unsafe { epoll_create1(CLOEXEC) },
            "epoll_create1",
        )))
    }

    /// `EPOLL_CTL_ADD`: report `fd` as `token` while it has any of
    /// `events`; `EPOLL_CTL_MOD`: the same for an `fd` already added.
    /// Closing `fd` ends its registration.
    pub(crate) fn ctl(&self, op: i32, fd: &impl AsRawFd, events: u32, token: u64) {
        let mut event = EpollEvent { events, token };
        // SAFETY: `event` is a live `epoll_event` for the length of the
        // call, and both descriptors are open: `self` and `fd` own them.
        let rc = unsafe { epoll_ctl(self.0.as_raw_fd(), op, fd.as_raw_fd(), &mut event) };
        assert!(rc == 0, "epoll_ctl({op}): {}", Error::last_os_error());
    }

    /// Wait for a descriptor or `timeout` (`None`: for ever); count ready.
    pub(crate) fn wait(&self, events: &mut [EpollEvent], timeout: Option<Duration>) -> usize {
        let timeout = timeout.map(|t| [t.as_secs() as i64, t.subsec_nanos() as i64]);
        let timeout = timeout.as_ref().map_or(std::ptr::null(), |t| t as *const _);
        let (buf, len) = (events.as_mut_ptr(), events.len() as i32);
        // SAFETY: `buf` is writable for `len` entries, `timeout` is null or
        // outlives the call, and a null signal mask leaves the mask alone.
        let ready =
            unsafe { epoll_pwait2(self.0.as_raw_fd(), buf, len, timeout, std::ptr::null()) };
        if ready < 0 && Error::last_os_error().kind() != ErrorKind::Interrupted {
            panic!("epoll_pwait2: {}", Error::last_os_error());
        }
        ready.max(0) as usize
    }
}

/// A nonblocking `eventfd`: writing a `u64` adds to its count, a read
/// takes the count back to zero, and it is readable while that is not.
pub(crate) fn wake_fd() -> File {
    // SAFETY: the call takes no pointer.
    File::from(owned(unsafe { eventfd(0, CLOEXEC | NONBLOCK) }, "eventfd"))
}

/// The descriptor `call` returned, which nobody owns yet.
fn owned(fd: i32, call: &str) -> OwnedFd {
    assert!(fd >= 0, "{call}: {}", Error::last_os_error());
    // SAFETY: `fd` is open, as just checked, and nobody else's.
    unsafe { OwnedFd::from_raw_fd(fd) }
}
