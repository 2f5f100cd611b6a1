//! The TCP front end: accept loop, per-connection handlers, graceful
//! shutdown.
//!
//! Concurrency here is *transport-only*: connection handlers run on OS
//! threads (scoped, so the accept loop owns their lifetime), but every
//! simulation they trigger goes through [`Service::submit`], whose
//! results are deterministic regardless of scheduling. The determinism
//! lint allowlists exactly this file for `std::thread` (see
//! `lint.toml`); nothing here touches simulated state.
//!
//! # Shutdown
//!
//! There is no signal handling in a std-only crate, so shutdown is a
//! protocol control message ([`Request::Shutdown`]): the handler acks
//! with `bye`, sets the shutdown flag, and wakes the accept loop with a
//! throwaway connection to its own address. The accept loop stops
//! accepting, the thread scope joins every in-flight handler (draining
//! their submissions to completion), and the store is flushed —
//! removing this process's leftover `*.tmp.<pid>` write intermediates
//! so no torn entry outlives the process. Entry *publication* was
//! already atomic (write-then-rename), so even an abrupt kill cannot
//! tear a published entry; the flush only tidies temporaries.
// Sanctioned exemption (see lint.toml): scoped OS threads for the
// accept loop and connection handlers; simulation state is untouched.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use crate::protocol::{Request, Response};
use crate::service::Service;

/// Longest request line a connection may send, newline included. The
/// largest committed pack is a few KiB of `.hiss` text, so 1 MiB leaves
/// ample headroom while bounding what one unterminated line can make
/// the server buffer. An over-cap line is answered with a `resp.error`
/// naming the cap, and the connection is closed.
pub const MAX_REQUEST_LINE: usize = 1 << 20;

/// A bound (but not yet running) server.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    service: Arc<Service>,
    shutdown: AtomicBool,
}

impl Server {
    /// Binds to `addr` (`host:port`; port 0 picks a free port).
    pub fn bind(addr: impl ToSocketAddrs, service: Arc<Service>) -> std::io::Result<Server> {
        Ok(Server {
            listener: TcpListener::bind(addr)?,
            service,
            shutdown: AtomicBool::new(false),
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// The service this server fronts.
    pub fn service(&self) -> &Arc<Service> {
        &self.service
    }

    /// Accepts and serves connections until a shutdown request arrives,
    /// then drains every in-flight submission and flushes the store.
    pub fn run(&self) -> std::io::Result<()> {
        std::thread::scope(|scope| {
            for conn in self.listener.incoming() {
                if self.shutdown.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(conn) = conn else { continue };
                scope.spawn(move || {
                    // A dropped connection mid-stream is the client's
                    // problem; the server stays up.
                    let _ = self.handle(conn);
                });
            }
            // Leaving the scope joins every handler: in-flight
            // submissions finish streaming before we continue.
        });
        if let Some(store) = self.service.store() {
            store.flush()?;
        }
        Ok(())
    }

    /// Flags shutdown and wakes the accept loop so [`Self::run`] can
    /// return. Safe to call from any thread.
    pub fn initiate_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        if let Ok(addr) = self.listener.local_addr() {
            // The accept loop observes the flag on its next iteration;
            // this throwaway connection guarantees there is one.
            drop(TcpStream::connect(addr));
        }
    }

    /// Serves one connection: a sequence of request lines, each
    /// answered by one or more response lines.
    fn handle(&self, conn: TcpStream) -> std::io::Result<()> {
        let mut reader = BufReader::new(conn.try_clone()?);
        let mut writer = conn;
        let mut line = String::new();
        loop {
            line.clear();
            let read = (&mut reader)
                .take(MAX_REQUEST_LINE as u64)
                .read_line(&mut line)?;
            if read == 0 {
                return Ok(()); // client hung up
            }
            if read == MAX_REQUEST_LINE && !line.ends_with('\n') {
                let message = format!(
                    "request line exceeds the {MAX_REQUEST_LINE}-byte cap; closing the connection"
                );
                writeln!(writer, "{}", Response::Error { message }.encode())?;
                writer.flush()?;
                // Lingering close: stop sending, then discard up to one
                // more cap of input so a client still writing its line
                // reads the error instead of a connection reset.
                writer.shutdown(Shutdown::Write)?;
                std::io::copy(
                    &mut reader.take(MAX_REQUEST_LINE as u64),
                    &mut std::io::sink(),
                )?;
                return Ok(());
            }
            let text = line.trim_end_matches(['\r', '\n']);
            if text.is_empty() {
                continue;
            }
            match Request::decode(text) {
                Err(message) => {
                    writeln!(writer, "{}", Response::Error { message }.encode())?;
                    writer.flush()?;
                }
                Ok(Request::Shutdown) => {
                    writeln!(writer, "{}", Response::Bye.encode())?;
                    writer.flush()?;
                    self.initiate_shutdown();
                    return Ok(());
                }
                Ok(Request::Submit { scenario, quick }) => {
                    let mut stream_err: Option<std::io::Error> = None;
                    let result = self
                        .service
                        .submit("submission", &scenario, quick, |snapshot| {
                            if stream_err.is_none() {
                                let r = writeln!(writer, "{}", Response::Cell(snapshot).encode());
                                if let Err(e) = r {
                                    stream_err = Some(e);
                                }
                            }
                        });
                    if let Some(e) = stream_err {
                        // Best effort: if the socket is only half-broken
                        // (client still reading), a `resp.error` tail
                        // turns a silent hang-up into a protocol error
                        // the client can report. Usually this write
                        // fails too; either way the stream never ends
                        // in a `done` that undercounts its cells.
                        let _ = writeln!(
                            writer,
                            "{}",
                            Response::Error {
                                message: format!("stream aborted: {e}"),
                            }
                            .encode()
                        );
                        return Err(e);
                    }
                    let tail = match result {
                        Ok(s) => Response::Done {
                            cells: s.cells,
                            simulated: s.simulated,
                            from_store: s.from_store,
                        },
                        Err(diags) => Response::Rejected {
                            diagnostics: diags.iter().map(|d| d.to_string()).collect(),
                        },
                    };
                    writeln!(writer, "{}", tail.encode())?;
                    writer.flush()?;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{self, Submission};
    use hiss::DiskStore;

    const TINY: &str = r#"
[scenario]
name = "tiny"
[workload]
cpu = ["x264"]
gpu = ["ubench"]
"#;

    // Same sanction as the accept loop above (see lint.toml): a
    // transport-only thread so the test can drive the server it hosts.
    #[allow(clippy::disallowed_methods)]
    fn start(store: Option<Arc<DiskStore>>) -> (Arc<Server>, std::thread::JoinHandle<()>) {
        let server = Arc::new(Server::bind("127.0.0.1:0", Arc::new(Service::new(store))).unwrap());
        let runner = Arc::clone(&server);
        let handle = std::thread::spawn(move || runner.run().unwrap());
        (server, handle)
    }

    #[test]
    fn submissions_stream_and_shutdown_drains() {
        let dir = std::env::temp_dir().join(format!("hiss_serve_server_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Arc::new(DiskStore::open(&dir).unwrap());
        let (server, handle) = start(Some(Arc::clone(&store)));
        let addr = server.local_addr().unwrap().to_string();

        // Rejection carries diagnostics inline.
        match client::submit(&addr, "[scenario]\nname = \"t\"\n", false).unwrap() {
            Submission::Rejected { diagnostics } => {
                assert!(diagnostics[0].contains("HL000"), "{diagnostics:?}");
            }
            other => panic!("expected rejection, got {other:?}"),
        }

        // First submission simulates; the re-submission is 100% store
        // hits with byte-identical snapshot lines.
        let first = match client::submit(&addr, TINY, false).unwrap() {
            Submission::Completed {
                snapshots,
                cells,
                simulated,
                from_store,
            } => {
                assert_eq!((cells, simulated, from_store), (1, 1, 0));
                snapshots
            }
            other => panic!("expected completion, got {other:?}"),
        };
        match client::submit(&addr, TINY, false).unwrap() {
            Submission::Completed {
                snapshots,
                simulated,
                from_store,
                ..
            } => {
                assert_eq!((simulated, from_store), (0, 1));
                assert_eq!(snapshots, first);
            }
            other => panic!("expected completion, got {other:?}"),
        }

        // Shutdown acks, drains, and leaves no write temporaries.
        client::shutdown(&addr).unwrap();
        handle.join().unwrap();
        let leftovers: Vec<_> = walk(&dir)
            .into_iter()
            .filter(|p| p.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(leftovers.is_empty(), "torn temporaries: {leftovers:?}");
        assert_eq!(store.write_count(), 1);

        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn malformed_requests_get_an_error_line_and_keep_the_connection() {
        let (server, handle) = start(None);
        let addr = server.local_addr().unwrap();

        let conn = TcpStream::connect(addr).unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        writeln!(writer, "this is not json").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        match Response::decode(line.trim_end()).unwrap() {
            Response::Error { message } => assert!(!message.is_empty()),
            other => panic!("expected an error line, got {other:?}"),
        }
        // The connection survives and still serves shutdown.
        writeln!(writer, "{}", Request::Shutdown.encode()).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        assert_eq!(Response::decode(line.trim_end()).unwrap(), Response::Bye);
        handle.join().unwrap();
    }

    #[test]
    fn over_cap_request_line_is_refused_and_the_server_keeps_serving() {
        let (server, handle) = start(None);
        let addr = server.local_addr().unwrap();

        // Twice the cap with no newline: without the cap the server
        // would buffer it and wait for the rest of the line forever.
        let conn = TcpStream::connect(addr).unwrap();
        conn.set_read_timeout(Some(std::time::Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(conn.try_clone().unwrap());
        let mut writer = conn;
        writer.write_all(&vec![b'x'; 2 * MAX_REQUEST_LINE]).unwrap();
        let mut line = String::new();
        reader
            .read_line(&mut line)
            .expect("error line before timeout");
        match Response::decode(line.trim_end()).unwrap() {
            Response::Error { message } => {
                assert!(message.contains(&MAX_REQUEST_LINE.to_string()), "{message}");
            }
            other => panic!("expected an error line, got {other:?}"),
        }
        line.clear();
        assert_eq!(reader.read_line(&mut line).unwrap(), 0, "connection closed");

        // A second client is still served.
        let addr = addr.to_string();
        match client::submit(&addr, TINY, false).unwrap() {
            Submission::Completed { cells, .. } => assert_eq!(cells, 1),
            other => panic!("expected completion, got {other:?}"),
        }
        client::shutdown(&addr).unwrap();
        handle.join().unwrap();
    }

    /// A submit line just under the cap (a tiny pack padded with a
    /// comment) is answered within seconds: decoding the line is linear
    /// in its length. The watchdog thread turns a hang into a failure.
    #[test]
    #[allow(clippy::disallowed_methods)]
    fn near_cap_submit_line_is_answered_promptly() {
        let (server, handle) = start(None);
        let addr = server.local_addr().unwrap().to_string();
        let text = |pad: usize| format!("{TINY}# {}\n", "x".repeat(pad));
        let encoded = |pad| {
            Request::Submit {
                scenario: text(pad),
                quick: false,
            }
            .encode()
            .len()
        };
        let pad = MAX_REQUEST_LINE - 64 - encoded(0);
        assert!((MAX_REQUEST_LINE - 100..MAX_REQUEST_LINE - 1).contains(&encoded(pad)));

        let (tx, rx) = std::sync::mpsc::channel();
        let to = addr.clone();
        std::thread::spawn(move || tx.send(client::submit(&to, &text(pad), false).unwrap()));
        match rx.recv_timeout(std::time::Duration::from_secs(20)) {
            Ok(Submission::Completed { cells, .. }) => assert_eq!(cells, 1),
            other => panic!("expected a prompt completion, got {other:?}"),
        }
        client::shutdown(&addr).unwrap();
        handle.join().unwrap();
    }

    fn walk(dir: &std::path::Path) -> Vec<std::path::PathBuf> {
        let mut out = Vec::new();
        if let Ok(entries) = std::fs::read_dir(dir) {
            for e in entries.flatten() {
                let p = e.path();
                if p.is_dir() {
                    out.extend(walk(&p));
                } else {
                    out.push(p);
                }
            }
        }
        out
    }
}
