//! SIGTERM/SIGINT handling without a signals crate.
//!
//! The handler does one async-signal-safe thing: it writes a byte to a
//! pipe. [`wait`] blocks reading the other end, so an ordinary thread can
//! turn a signal into a server drain (`nvp-serve serve` does this with a
//! [`ShutdownHandle`](crate::server::ShutdownHandle)) without polling.
//! On non-Unix targets [`install`] is a no-op, [`wait`] never returns,
//! and shutdown is reachable only through `POST /shutdown`.

#[cfg(unix)]
#[allow(unsafe_code)]
mod unix {
    use std::sync::atomic::{AtomicI32, Ordering};

    const SIGTERM: i32 = 15;
    const SIGINT: i32 = 2;

    /// The pipe's read and write ends; -1 until [`install`] succeeds.
    static READ_FD: AtomicI32 = AtomicI32::new(-1);
    static WRITE_FD: AtomicI32 = AtomicI32::new(-1);

    extern "C" {
        fn signal(signum: i32, handler: extern "C" fn(i32)) -> usize;
        fn pipe(fds: *mut i32) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn write(fd: i32, buf: *const u8, count: usize) -> isize;
    }

    extern "C" fn on_signal(_signum: i32) {
        let byte = 1u8;
        // SAFETY: `write(2)` is async-signal-safe, the fd is the pipe's
        // write end stored before the handler was installed, and the
        // buffer is a live one-byte local. A full pipe only drops the
        // byte, and one unread byte is enough to wake `wait`.
        unsafe {
            write(WRITE_FD.load(Ordering::SeqCst), &byte, 1);
        }
    }

    pub fn install() {
        let mut fds = [-1i32; 2];
        // SAFETY: `pipe(2)` writes two fds into the two-element array it
        // is given, which lives for the whole call.
        if unsafe { pipe(fds.as_mut_ptr()) } != 0 {
            return;
        }
        READ_FD.store(fds[0], Ordering::SeqCst);
        WRITE_FD.store(fds[1], Ordering::SeqCst);
        // SAFETY: `signal(2)` with a handler that only writes to a pipe is
        // async-signal-safe; we never inspect the return value because
        // failure just leaves the default disposition in place.
        unsafe {
            signal(SIGTERM, on_signal);
            signal(SIGINT, on_signal);
        }
    }

    pub fn wait() {
        let fd = READ_FD.load(Ordering::SeqCst);
        if fd < 0 {
            // Not installed: no signal can arrive through the pipe.
            loop {
                std::thread::park();
            }
        }
        let mut byte = 0u8;
        loop {
            // SAFETY: `fd` is the pipe's read end, never closed, and the
            // buffer is a live one-byte local.
            let n = unsafe { read(fd, &mut byte, 1) };
            if n >= 0 || std::io::Error::last_os_error().kind() != std::io::ErrorKind::Interrupted {
                return;
            }
        }
    }
}

/// Installs SIGTERM/SIGINT handlers that wake [`wait`]. Call it once,
/// at start-up. No-op on non-Unix targets.
pub fn install() {
    #[cfg(unix)]
    unix::install();
}

/// Blocks until SIGTERM or SIGINT arrives after [`install`]. Never returns
/// if the handlers are not installed.
pub fn wait() {
    #[cfg(unix)]
    unix::wait();
    #[cfg(not(unix))]
    loop {
        std::thread::park();
    }
}
