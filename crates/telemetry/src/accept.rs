//! The one accept/admission loop, shared by the `dapd` daemon and the
//! HTTP ops endpoint ([`OpsServer`](crate::http::OpsServer)). [`spawn`]
//! documents what it guarantees; a server plugs in only its handler and
//! its [`Admission`] hooks.

use std::io::{self, ErrorKind};
use std::net::{TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::{self, Builder, JoinHandle};
use std::time::Duration;

/// Sleep after an empty accept or an accept error.
pub const ACCEPT_POLL: Duration = Duration::from_millis(10);

/// A listening socket; a test can substitute a scripted fake.
pub trait Listener: Send + 'static {
    /// The accepted connection type.
    type Stream: Send + 'static;
    /// Switches the listener between blocking and non-blocking accepts.
    fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()>;
    /// Accepts one pending connection (`WouldBlock` when none is).
    fn accept_conn(&self) -> io::Result<Self::Stream>;
    /// Sets `stream` blocking with non-zero read and write deadlines.
    fn arm(stream: &Self::Stream, read: Duration, write: Duration) -> io::Result<()>;
}

macro_rules! socket_listener {
    ($listener:ty, $stream:ty) => {
        impl Listener for $listener {
            type Stream = $stream;
            fn set_nonblocking(&self, nonblocking: bool) -> io::Result<()> {
                <$listener>::set_nonblocking(self, nonblocking)
            }
            fn accept_conn(&self) -> io::Result<$stream> {
                self.accept().map(|(stream, _)| stream)
            }
            fn arm(stream: &$stream, read: Duration, write: Duration) -> io::Result<()> {
                stream.set_nonblocking(false)?;
                stream.set_read_timeout(Some(read))?;
                stream.set_write_timeout(Some(write))
            }
        }
    };
}

socket_listener!(TcpListener, TcpStream);
socket_listener!(UnixListener, UnixStream);

/// A server's acceptor-side hooks; each runs on the acceptor thread.
pub trait Admission<S>: Send + 'static {
    /// Disposes of an armed connection that gets no worker: the cap is
    /// reached, or its worker thread could not be spawned.
    fn refuse(&mut self, stream: S);
    /// Runs once per loop iteration, before the accept.
    fn tick(&mut self) {}
    /// Sees each accept error the loop backs off from and retries.
    fn accept_error(&mut self, _error: &io::Error) {}
}

/// What the loop enforces per connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Limits {
    /// Read deadline armed on every accepted socket.
    pub read_deadline: Duration,
    /// Write deadline armed on every accepted socket.
    pub write_deadline: Duration,
    /// Live workers at which further connections are refused.
    pub max_connections: usize,
}

/// Runs the accept loop on a `{name}-accept` thread until `stop` is set,
/// then joins the workers (deadlines bound that join).
///
/// Each accepted socket is set blocking explicitly (BSD derivatives
/// inherit `O_NONBLOCK` from the listener) and armed with the deadlines
/// in `limits`, or dropped if that fails. Finished workers are pruned
/// before the cap check. An admitted connection gets one `{name}-conn`
/// thread running `serve`; over the cap, or if that thread cannot be
/// spawned, it is refused. Any accept error but `WouldBlock` (sleep one
/// [`ACCEPT_POLL`]) and `Interrupted` (retry) is reported and retried
/// after one poll, so a running server never stops accepting.
///
/// # Errors
///
/// The listener cannot be made non-blocking, or the acceptor thread
/// cannot be spawned.
pub fn spawn<L, H, A>(
    name: &str,
    listener: L,
    limits: Limits,
    stop: Arc<AtomicBool>,
    serve: H,
    admission: A,
) -> io::Result<JoinHandle<()>>
where
    L: Listener,
    H: Fn(L::Stream) + Clone + Send + 'static,
    A: Admission<L::Stream>,
{
    listener.set_nonblocking(true)?;
    let name = name.to_string();
    Builder::new()
        .name(format!("{name}-accept"))
        .spawn(move || accept_loop(listener, limits, &stop, &name, serve, admission))
}

fn accept_loop<L, H, A>(
    listener: L,
    limits: Limits,
    stop: &AtomicBool,
    name: &str,
    serve: H,
    mut admission: A,
) where
    L: Listener,
    H: Fn(L::Stream) + Clone + Send + 'static,
    A: Admission<L::Stream>,
{
    let mut workers: Vec<JoinHandle<()>> = Vec::new();
    while !stop.load(Ordering::SeqCst) {
        admission.tick();
        match listener.accept_conn() {
            Ok(stream) => {
                workers.retain(|w| !w.is_finished());
                if L::arm(&stream, limits.read_deadline, limits.write_deadline).is_err() {
                    continue;
                }
                if workers.len() >= limits.max_connections {
                    admission.refuse(stream);
                    continue;
                }
                let builder = Builder::new().name(format!("{name}-conn"));
                match spawn_worker(builder, stream, serve.clone()) {
                    Ok(worker) => workers.push(worker),
                    Err(stream) => admission.refuse(stream),
                }
            }
            Err(e) if e.kind() == ErrorKind::WouldBlock => {
                workers.retain(|w| !w.is_finished());
                thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) => {
                admission.accept_error(&e);
                thread::sleep(ACCEPT_POLL);
            }
        }
    }
    for worker in workers {
        let _ = worker.join();
    }
}

/// Runs `serve(stream)` on a thread from `builder`, or hands the stream
/// back if no thread could be spawned. The stream is sent to the worker
/// only once it exists, so a failed spawn never loses it.
fn spawn_worker<S, H>(builder: Builder, stream: S, serve: H) -> Result<JoinHandle<()>, S>
where
    S: Send + 'static,
    H: FnOnce(S) + Send + 'static,
{
    let (handoff, slot) = mpsc::sync_channel(1);
    let work = move || {
        if let Ok(stream) = slot.recv() {
            serve(stream);
        }
    };
    match builder.spawn(work) {
        Ok(worker) => {
            let _ = handoff.send(stream);
            Ok(worker)
        }
        Err(_) => Err(stream),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::sync::mpsc::{Receiver, Sender};
    use std::sync::Mutex;

    /// A listener whose accepts replay whatever the test sends, and
    /// `WouldBlock` whenever nothing is queued.
    struct ScriptedListener(Mutex<Receiver<io::Result<UnixStream>>>);

    impl Listener for ScriptedListener {
        type Stream = UnixStream;
        fn set_nonblocking(&self, _nonblocking: bool) -> io::Result<()> {
            Ok(())
        }
        fn accept_conn(&self) -> io::Result<UnixStream> {
            self.0
                .lock()
                .unwrap()
                .try_recv()
                .unwrap_or_else(|_| Err(ErrorKind::WouldBlock.into()))
        }
        fn arm(stream: &UnixStream, read: Duration, write: Duration) -> io::Result<()> {
            UnixListener::arm(stream, read, write)
        }
    }

    /// Reports every acceptor-side hook call to the test, on the same
    /// channel the workers report on, so the test sees one ordered
    /// stream of events.
    struct Recorder(Sender<String>);

    impl Admission<UnixStream> for Recorder {
        fn refuse(&mut self, _stream: UnixStream) {
            let _ = self.0.send("refused".to_string());
        }
        fn accept_error(&mut self, error: &io::Error) {
            let _ = self.0.send(format!("error {:?}", error.kind()));
        }
    }

    const WAIT: Duration = Duration::from_secs(5);
    const DEADLINE: Duration = Duration::from_secs(3);

    #[test]
    fn scripted_accepts_are_served_reported_capped_and_stopped() {
        let (script, accepts) = mpsc::channel();
        let (events_tx, events) = mpsc::channel();
        let worker_tx = events_tx.clone();
        let stop = Arc::new(AtomicBool::new(false));
        let acceptor = spawn(
            "test",
            ScriptedListener(Mutex::new(accepts)),
            Limits {
                read_deadline: DEADLINE,
                write_deadline: DEADLINE,
                max_connections: 1,
            },
            Arc::clone(&stop),
            // A worker reports its armed deadline, then holds its slot
            // until the peer hangs up.
            move |mut stream: UnixStream| {
                let armed = stream.read_timeout().unwrap();
                let _ = worker_tx.send(format!("served {armed:?}"));
                let _ = stream.read_to_end(&mut Vec::new());
                let _ = worker_tx.send("done".to_string());
            },
            Recorder(events_tx),
        )
        .unwrap();
        let next = || events.recv_timeout(WAIT).unwrap();
        let served = format!("served {:?}", Some(DEADLINE));

        // Two accept errors are reported, and the loop keeps accepting.
        script.send(Err(ErrorKind::Other.into())).unwrap();
        script
            .send(Err(ErrorKind::ConnectionAborted.into()))
            .unwrap();
        let (first, first_peer) = UnixStream::pair().unwrap();
        script.send(Ok(first)).unwrap();
        assert_eq!(next(), "error Other");
        assert_eq!(next(), "error ConnectionAborted");
        assert_eq!(next(), served);

        // The one worker slot is taken: the next connection is refused.
        let (second, _second_peer) = UnixStream::pair().unwrap();
        script.send(Ok(second)).unwrap();
        assert_eq!(next(), "refused");

        // Once the first worker's thread has exited, pruning frees its
        // slot. Until then a new connection is still refused, so offer
        // connections until one is served.
        drop(first_peer);
        assert_eq!(next(), "done");
        let third_peer = loop {
            let (third, peer) = UnixStream::pair().unwrap();
            script.send(Ok(third)).unwrap();
            match next() {
                event if event == served => break peer,
                event => assert_eq!(event, "refused"),
            }
        };

        // Only the stop flag ends the loop, and it joins its workers.
        thread::sleep(ACCEPT_POLL * 5);
        assert!(!acceptor.is_finished(), "the loop exited without a stop");
        drop(third_peer);
        stop.store(true, Ordering::SeqCst);
        acceptor.join().unwrap();
        assert_eq!(next(), "done");
        assert!(events.try_recv().is_err(), "no further events");
    }

    #[test]
    fn a_stream_whose_worker_cannot_start_is_handed_back() {
        let (stream, mut peer) = UnixStream::pair().unwrap();
        // No host can map a 2^60-byte stack, so the spawn fails without
        // starting a thread.
        let unspawnable = Builder::new().stack_size(1 << 60);
        let Err(mut back) = spawn_worker(unspawnable, stream, |_: UnixStream| {}) else {
            panic!("a failed spawn must hand the stream back");
        };
        // The stream handed back is the accepted one, still open.
        back.write_all(b"x").unwrap();
        let mut byte = [0u8; 1];
        peer.read_exact(&mut byte).unwrap();
        assert_eq!(&byte, b"x");
    }
}
