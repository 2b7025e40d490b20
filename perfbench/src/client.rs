//! Minimal keep-alive HTTP/1.1 client for pre-encoded requests.
//!
//! Kept in the benchmark rather than borrowed from the service crate so
//! that a change to the server's own client code cannot move the
//! load generator's cost.

use std::io::{self, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Reply {
    pub status: u16,
    pub body: Vec<u8>,
}

pub struct Client {
    stream: TcpStream,
    buf: Vec<u8>,
    /// Read position in `buf`; bytes before it belong to earlier replies.
    pos: usize,
}

fn invalid(msg: &str) -> io::Error {
    io::Error::new(ErrorKind::InvalidData, msg.to_string())
}

impl Client {
    pub fn connect(addr: SocketAddr) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Client { stream, buf: Vec::with_capacity(64 * 1024), pos: 0 })
    }

    /// Send one complete request and read its response.
    pub fn send(&mut self, request: &[u8]) -> io::Result<Reply> {
        self.stream.write_all(request)?;
        self.read_reply()
    }

    fn fill(&mut self) -> io::Result<()> {
        let len = self.buf.len();
        self.buf.resize(len + 64 * 1024, 0);
        let n = self.stream.read(&mut self.buf[len..]);
        self.buf.truncate(len + n.as_ref().map_or(0, |&n| n));
        match n? {
            0 => Err(io::Error::new(ErrorKind::UnexpectedEof, "connection closed")),
            _ => Ok(()),
        }
    }

    /// Index just past the next `\r\n` at or after `from`, reading more
    /// as needed.
    fn line_end(&mut self, from: usize) -> io::Result<usize> {
        let mut scanned = from;
        loop {
            if let Some(i) = self.buf[scanned..].windows(2).position(|w| w == b"\r\n") {
                return Ok(scanned + i + 2);
            }
            scanned = self.buf.len().saturating_sub(1).max(from);
            self.fill()?;
        }
    }

    fn read_reply(&mut self) -> io::Result<Reply> {
        self.buf.drain(..self.pos);
        self.pos = 0;
        let start = 0;
        let mut scanned = start;
        let head_end = loop {
            if let Some(i) = self.buf[scanned..].windows(4).position(|w| w == b"\r\n\r\n") {
                break scanned + i + 4;
            }
            scanned = self.buf.len().saturating_sub(3).max(start);
            self.fill()?;
        };
        let head = std::str::from_utf8(&self.buf[start..head_end]).map_err(|_| invalid("head"))?;
        let status: u16 = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("status line"))?;
        let mut length = None;
        let mut chunked = false;
        for line in head.split("\r\n").skip(1) {
            if let Some((name, value)) = line.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(value.parse::<usize>().map_err(|_| invalid("length"))?);
                } else if name.eq_ignore_ascii_case("transfer-encoding") {
                    chunked = value.eq_ignore_ascii_case("chunked");
                }
            }
        }
        self.pos = head_end;
        let body = if chunked {
            self.read_chunked()?
        } else {
            let len = length.ok_or_else(|| invalid("no content-length"))?;
            while self.buf.len() < self.pos + len {
                self.fill()?;
            }
            let body = self.buf[self.pos..self.pos + len].to_vec();
            self.pos += len;
            body
        };
        Ok(Reply { status, body })
    }

    fn read_chunked(&mut self) -> io::Result<Vec<u8>> {
        let mut body = Vec::new();
        loop {
            let end = self.line_end(self.pos)?;
            let size_text =
                std::str::from_utf8(&self.buf[self.pos..end - 2]).map_err(|_| invalid("chunk"))?;
            let size = usize::from_str_radix(size_text.trim(), 16).map_err(|_| invalid("chunk"))?;
            self.pos = end;
            while self.buf.len() < self.pos + size + 2 {
                self.fill()?;
            }
            body.extend_from_slice(&self.buf[self.pos..self.pos + size]);
            if &self.buf[self.pos + size..self.pos + size + 2] != b"\r\n" {
                return Err(invalid("chunk framing"));
            }
            self.pos += size + 2;
            if size == 0 {
                return Ok(body);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::net::TcpListener;

    /// Replies written in small pieces, sized and chunked, back to back
    /// on one connection.
    #[test]
    fn sized_and_chunked_replies() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server = std::thread::spawn(move || {
            let (mut conn, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let replies: [&[u8]; 2] = [
                b"HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello",
                b"HTTP/1.1 201 Created\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n10\r\n0123456789abcdef\r\n0\r\n\r\n",
            ];
            for reply in replies {
                let _ = conn.read(&mut buf).unwrap();
                for piece in reply.chunks(3) {
                    conn.write_all(piece).unwrap();
                    conn.flush().unwrap();
                    std::thread::sleep(Duration::from_millis(1));
                }
            }
        });
        let mut client = Client::connect(addr).unwrap();
        let first = client.send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!((first.status, first.body.as_slice()), (200, &b"hello"[..]));
        let second = client.send(b"GET / HTTP/1.1\r\n\r\n").unwrap();
        assert_eq!(second.status, 201);
        assert_eq!(second.body, b"abc0123456789abcdef");
        server.join().unwrap();
    }
}
