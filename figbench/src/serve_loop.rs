//! A closed-loop client of `hotgauge_store::serve`.
//!
//! The service runs on its own thread, reading request lines from a channel
//! and writing row lines to another. One client sends one request per batch
//! (the request line, then a blank line) and waits for its row before
//! sending the next, timing each round trip.

use std::io::{self, BufReader, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender};

use hotgauge_store::{serve, ResultStore, ServeOptions, SweepRequest, SweepRow};

use crate::clock::Stopwatch;

/// The service's answer to one request.
#[derive(Debug, Clone)]
pub struct Reply {
    /// The raw output line.
    pub line: String,
    /// The line parsed as a result row (`None` for an error line).
    pub row: Option<SweepRow>,
    /// Round-trip latency, ms: from handing the request to the service to
    /// receiving its row.
    pub ms: f64,
}

/// Sends `stream` through a `serve` session on `store`, one request at a
/// time, and returns the replies in order. Fails if the session ends early.
pub fn closed_loop(
    store: &mut ResultStore,
    opts: &ServeOptions,
    stream: &[SweepRequest],
) -> Result<Vec<Reply>, String> {
    let lines: Vec<String> = stream
        .iter()
        .map(|r| serde_json::to_string(r).map(|l| format!("{l}\n\n")))
        .collect::<Result<_, _>>()
        .map_err(|e| format!("cannot encode a request: {e}"))?;
    let (req_tx, req_rx) = channel::<Vec<u8>>();
    let (row_tx, row_rx) = channel::<String>();
    std::thread::scope(|s| {
        let server = s.spawn(move || {
            let input = BufReader::new(ChannelReader {
                rx: req_rx,
                buf: Vec::new(),
                pos: 0,
            });
            let output = LineSink {
                tx: row_tx,
                buf: Vec::new(),
            };
            serve(input, output, store, opts, None)
        });
        let mut replies = Vec::with_capacity(lines.len());
        for line in lines {
            let timer = Stopwatch::start();
            if req_tx.send(line.into_bytes()).is_err() {
                break;
            }
            let Ok(out) = row_rx.recv() else { break };
            let ms = timer.elapsed_ms();
            let row = serde_json::from_str::<SweepRow>(&out).ok();
            replies.push(Reply { line: out, row, ms });
        }
        drop(req_tx);
        match server.join() {
            Ok(Ok(_)) => Ok(replies),
            Ok(Err(e)) => Err(format!("serve session failed: {e}")),
            Err(_) => Err("serve session panicked".to_owned()),
        }
    })
}

/// Request bytes arriving over a channel; end of input when the client
/// hangs up.
struct ChannelReader {
    rx: Receiver<Vec<u8>>,
    buf: Vec<u8>,
    pos: usize,
}

impl Read for ChannelReader {
    fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
        if self.pos == self.buf.len() {
            match self.rx.recv() {
                Ok(chunk) => {
                    self.buf = chunk;
                    self.pos = 0;
                }
                Err(_) => return Ok(0),
            }
        }
        let n = out.len().min(self.buf.len() - self.pos);
        out[..n].copy_from_slice(&self.buf[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Service output split into lines, each sent to the client as it ends.
struct LineSink {
    tx: Sender<String>,
    buf: Vec<u8>,
}

impl Write for LineSink {
    fn write(&mut self, data: &[u8]) -> io::Result<usize> {
        self.buf.extend_from_slice(data);
        while let Some(end) = self.buf.iter().position(|&b| b == b'\n') {
            let line: Vec<u8> = self.buf.drain(..=end).collect();
            let text = String::from_utf8_lossy(&line[..end]).into_owned();
            self.tx
                .send(text)
                .map_err(|_| io::Error::new(io::ErrorKind::BrokenPipe, "client hung up"))?;
        }
        Ok(data.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}
