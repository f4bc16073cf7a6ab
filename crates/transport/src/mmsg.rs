//! One socket drain per wake-up: up to [`SLOTS`] datagrams in with one
//! `recvmmsg(2)`, every reply out with one `sendmmsg(2)` (a lone reply
//! with the shorter `sendto(2)`), declared by hand as `signal.rs`
//! declares `signal(2)`. Off 64-bit Linux glibc, [`Drain`] takes one
//! datagram per `recv_from` and answers with `send_to`.

use std::io;
use std::net::UdpSocket;

use tempo_service::wire::MAX_REQUEST_BATCH_LEN;

/// Most datagrams one drain takes.
const SLOTS: usize = 16;
/// The longest request batch plus a spare byte: where nothing reports
/// `MSG_TRUNC`, a datagram that reaches the spare byte is too long. A
/// datagram cut off at the slot reads as empty, which the codec rejects.
const SLOT_LEN: usize = MAX_REQUEST_BATCH_LEN + 1;

/// A serving thread's receive slots and reply buffers, reused by every
/// drain; one array per field, so headers never read a slot.
#[derive(Debug)]
pub(crate) struct Drain {
    bufs: Box<[[u8; SLOT_LEN]; SLOTS]>,
    /// Each datagram's length; 0 when it was cut off.
    lens: [usize; SLOTS],
    peers: [sys::Peer; SLOTS],
    replies: [Vec<u8>; SLOTS],
    received: usize,
}

impl Drain {
    pub(crate) fn new() -> Drain {
        let bufs = vec![[0; SLOT_LEN]; SLOTS].into_boxed_slice();
        Drain {
            bufs: bufs.try_into().expect("SLOTS buffers"),
            lens: [0; SLOTS],
            peers: [sys::Peer::default(); SLOTS],
            replies: std::array::from_fn(|_| Vec::new()),
            received: 0,
        }
    }

    /// Waits, under the socket's read timeout, for one datagram and
    /// takes whatever else is queued, up to [`SLOTS`]. Yields them in
    /// arrival order, each with an empty buffer [`Drain::send`] sends.
    pub(crate) fn recv(
        &mut self,
        socket: &UdpSocket,
    ) -> io::Result<impl Iterator<Item = (&[u8], &mut Vec<u8>)>> {
        for reply in &mut self.replies[..self.received] {
            reply.clear();
        }
        self.received = 0;
        self.received = sys::recv(socket, self)?;
        let datagrams = self.bufs.iter().zip(self.lens).map(|(b, len)| &b[..len]);
        Ok(datagrams.zip(&mut self.replies[..self.received]))
    }

    /// Sends every non-empty reply to the address its datagram came
    /// from. A reply that cannot be sent is dropped, as a failed
    /// `send_to` is, and the ones behind it still go out.
    pub(crate) fn send(&self, socket: &UdpSocket) {
        sys::send(socket, self);
    }
}

#[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
#[allow(unsafe_code)]
mod sys {
    use std::ffi::c_void;
    use std::mem::{offset_of, size_of};
    use std::os::fd::AsRawFd;
    use std::{io, net::UdpSocket, ptr::null_mut};

    use super::{Drain, MAX_REQUEST_BATCH_LEN, SLOTS};

    const N: u32 = SLOTS as u32;
    const MSG_TRUNC: i32 = 0x20;
    const MSG_WAITFORONE: i32 = 0x1_0000;

    // `iovec` (base, len); `msghdr` (name, namelen, iov, iovlen,
    // control, controllen, flags); `mmsghdr` (header, bytes moved).
    #[repr(C)]
    struct IoVec(*mut c_void, usize);
    #[repr(C)]
    struct MsgHdr(*mut c_void, u32, *mut IoVec, usize, *mut c_void, usize, i32);
    #[repr(C)]
    struct MmsgHdr(MsgHdr, u32);
    /// A sender's `sockaddr_storage` and its length, as the kernel wrote
    /// them for a datagram and hands them back for its reply.
    #[repr(C)]
    #[derive(Debug, Clone, Copy, Default)]
    pub(super) struct Peer(pub(super) [u64; 16], pub(super) u32);

    // The glibc layouts on 64-bit Linux.
    const _: () = assert!(size_of::<IoVec>() == 16 && size_of::<MsgHdr>() == 56);
    const _: () = assert!(size_of::<MmsgHdr>() == 64 && offset_of!(Peer, 0) == 0);

    extern "C" {
        fn recvmmsg(fd: i32, m: *mut MmsgHdr, n: u32, flags: i32, timeout: *mut c_void) -> i32;
        fn sendmmsg(fd: i32, m: *mut MmsgHdr, n: u32, flags: i32) -> i32;
        fn sendto(fd: i32, b: *const c_void, n: usize, f: i32, to: *const c_void, tl: u32)
            -> isize;
    }

    /// Header `i` names `iovs[i]` and `names[i]`.
    fn headers(iovs: &mut [IoVec; SLOTS], names: [(*mut c_void, u32); SLOTS]) -> [MmsgHdr; SLOTS] {
        let iov = iovs.as_mut_ptr();
        std::array::from_fn(|i| {
            let ((name, len), iov) = (names[i], iov.wrapping_add(i));
            MmsgHdr(MsgHdr(name, len, iov, 1, null_mut(), 0, 0), 0)
        })
    }

    pub(super) fn recv(socket: &UdpSocket, d: &mut Drain) -> io::Result<usize> {
        let (buf, peer) = (d.bufs.as_mut_ptr(), d.peers.as_mut_ptr());
        let len = MAX_REQUEST_BATCH_LEN;
        let mut iovs = std::array::from_fn(|i| IoVec(buf.wrapping_add(i).cast(), len));
        let names = std::array::from_fn(|i| (peer.wrapping_add(i).cast(), 128));
        let (fd, mut hdrs) = (socket.as_raw_fd(), headers(&mut iovs, names));
        // SAFETY: header `i` points at iovec `i`, spanning the first
        // `MAX_REQUEST_BATCH_LEN` bytes of `bufs[i]`, and at the 128-byte
        // `peers[i].0`; `d` is borrowed mutably for the call, so the
        // kernel's writes alias nothing. A null timeout leaves the wait
        // to `SO_RCVTIMEO`.
        let got = unsafe { recvmmsg(fd, hdrs.as_mut_ptr(), N, MSG_WAITFORONE, null_mut()) };
        let got = usize::try_from(got).map_err(|_| io::Error::last_os_error())?;
        for (i, MmsgHdr(MsgHdr(_, namelen, .., flags), len)) in hdrs.iter().enumerate().take(got) {
            let cut = flags & MSG_TRUNC != 0;
            (d.lens[i], d.peers[i].1) = (if cut { 0 } else { *len as usize }, *namelen);
        }
        Ok(got)
    }

    pub(super) fn send(socket: &UdpSocket, d: &Drain) {
        let mut iovs = [(); SLOTS].map(|()| IoVec(null_mut(), 0));
        let mut names = [(null_mut(), 0); SLOTS];
        let mut count = 0;
        for (reply, peer) in d.replies.iter().zip(&d.peers).take(d.received) {
            if !reply.is_empty() {
                iovs[count] = IoVec(reply.as_ptr().cast_mut().cast(), reply.len());
                names[count] = (peer.0.as_ptr().cast_mut().cast(), peer.1);
                count += 1;
            }
        }
        let (fd, mut hdrs, mut sent) = (socket.as_raw_fd(), headers(&mut iovs, names), 0);
        while sent < count {
            let (IoVec(buf, len), (to, tolen)) = (&iovs[sent], names[sent]);
            // SAFETY: headers `sent..count` each name one iovec over a
            // live reply buffer and the address the kernel wrote for its
            // datagram; the kernel only reads them.
            let done = unsafe {
                if count - sent == 1 {
                    i32::from(sendto(fd, *buf, *len, 0, to, tolen) >= 0)
                } else {
                    sendmmsg(fd, hdrs.as_mut_ptr().add(sent), (count - sent) as u32, 0)
                }
            };
            // `sendmmsg` stops at the first message it cannot send and
            // counts those before it, or returns -1 when that was the
            // first: drop that one reply and resume behind it.
            sent += done.max(1) as usize;
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
mod sys {
    use std::{io, net::SocketAddr, net::UdpSocket};

    use super::{Drain, MAX_REQUEST_BATCH_LEN};

    pub(super) type Peer = Option<SocketAddr>;

    pub(super) fn recv(socket: &UdpSocket, d: &mut Drain) -> io::Result<usize> {
        let (len, from) = socket.recv_from(&mut d.bufs[0])?;
        d.lens[0] = if len <= MAX_REQUEST_BATCH_LEN { len } else { 0 };
        d.peers[0] = Some(from);
        Ok(1)
    }

    pub(super) fn send(socket: &UdpSocket, d: &Drain) {
        for (reply, peer) in d.replies.iter().zip(&d.peers).take(d.received) {
            if let (false, Some(peer)) = (reply.is_empty(), peer) {
                let _ = socket.send_to(reply, peer);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    use std::net::SocketAddr;
    use std::time::Duration;

    /// `addr` in the kernel's byte layout, as `recvmmsg` would report it.
    #[cfg(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64"))]
    fn peer(addr: SocketAddr) -> sys::Peer {
        let mut bytes = [0u8; 128];
        let len = match addr {
            SocketAddr::V4(v4) => {
                bytes[..2].copy_from_slice(&2u16.to_ne_bytes()); // AF_INET
                bytes[2..4].copy_from_slice(&v4.port().to_be_bytes());
                bytes[4..8].copy_from_slice(&v4.ip().octets());
                16
            }
            SocketAddr::V6(v6) => {
                bytes[..2].copy_from_slice(&10u16.to_ne_bytes()); // AF_INET6
                bytes[2..4].copy_from_slice(&v6.port().to_be_bytes());
                bytes[8..24].copy_from_slice(&v6.ip().octets());
                28
            }
        };
        let mut peer = sys::Peer([0; 16], len);
        for (word, chunk) in peer.0.iter_mut().zip(bytes.chunks_exact(8)) {
            *word = u64::from_ne_bytes(chunk.try_into().unwrap());
        }
        peer
    }

    #[cfg(not(all(target_os = "linux", target_env = "gnu", target_pointer_width = "64")))]
    fn peer(addr: SocketAddr) -> sys::Peer {
        Some(addr)
    }

    fn bound(addr: &str) -> UdpSocket {
        let socket = UdpSocket::bind(addr).unwrap();
        socket
            .set_read_timeout(Some(Duration::from_millis(200)))
            .unwrap();
        socket
    }

    #[test]
    fn a_drain_takes_every_queued_datagram_and_answers_each_sender() {
        let server = bound("127.0.0.1:0");
        let clients = [bound("127.0.0.1:0"), bound("127.0.0.1:0")];
        for (i, client) in clients.iter().enumerate() {
            client
                .send_to(&[i as u8; 3], server.local_addr().unwrap())
                .unwrap();
        }
        let mut drain = Drain::new();
        let mut received = 0;
        while received < clients.len() {
            for (datagram, reply) in drain.recv(&server).expect("queued datagrams") {
                reply.extend_from_slice(&[datagram[0], 0xAA]);
                received += 1;
            }
            drain.send(&server);
        }
        for (i, client) in clients.iter().enumerate() {
            let mut buf = [0u8; 8];
            let (len, _) = client.recv_from(&mut buf).expect("own reply");
            assert_eq!(&buf[..len], &[i as u8, 0xAA]);
        }
    }

    #[test]
    fn a_reply_that_cannot_be_sent_does_not_swallow_the_ones_behind_it() {
        let server = bound("127.0.0.1:0");
        let client = bound("127.0.0.1:0");
        let good = client.local_addr().unwrap();
        // A v4 socket cannot send to an IPv6 name: the kernel refuses
        // that message, and `sendmmsg` stops there. The last good reply
        // is left alone behind a refused one, so it takes `sendto`.
        let bad: SocketAddr = "[::1]:9".parse().unwrap();
        let mut drain = Drain::new();
        let order = [bad, good, bad, good, good, bad, good];
        for (i, to) in order.into_iter().enumerate() {
            drain.peers[i] = peer(to);
            drain.replies[i].push(i as u8);
        }
        drain.received = order.len();
        drain.send(&server);
        let mut got = Vec::new();
        let mut buf = [0u8; 8];
        while let Ok((len, _)) = client.recv_from(&mut buf) {
            got.extend_from_slice(&buf[..len]);
        }
        assert_eq!(got, [1, 3, 4, 6]);
    }
}
