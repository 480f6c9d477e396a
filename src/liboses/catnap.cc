#include "src/liboses/catnap.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "src/common/logging.h"
#include "src/memory/dma.h"

namespace demi {

namespace {

constexpr uint32_t kFileRecordMagic = 0x4C4F4752;  // same framing as LogDevice ("LOGR")
constexpr size_t kFileHeaderSize = 8;

sockaddr_in ToSockaddr(SocketAddress addr) {
  sockaddr_in sa{};
  sa.sin_family = AF_INET;
  sa.sin_addr.s_addr = htonl(addr.ip.value);
  sa.sin_port = htons(addr.port);
  return sa;
}

SocketAddress FromSockaddr(const sockaddr_in& sa) {
  return SocketAddress{Ipv4Addr{ntohl(sa.sin_addr.s_addr)}, ntohs(sa.sin_port)};
}

[[nodiscard]] Status ErrnoToStatus(int err) {
  switch (err) {
    case ECONNREFUSED: return Status::kConnectionRefused;
    case ECONNRESET: return Status::kConnectionReset;
    case ECONNABORTED: return Status::kConnectionAborted;
    case ENOTCONN: return Status::kNotConnected;
    case EADDRINUSE: return Status::kAddressInUse;
    case ETIMEDOUT: return Status::kTimedOut;
    case EMSGSIZE: return Status::kMessageTooLong;
    case ENOMEM: return Status::kNoMemory;
    case EBADF: return Status::kBadQueueDescriptor;
    case EPIPE: return Status::kConnectionReset;
    default: return Status::kIoError;
  }
}

uint64_t AlignUp8(uint64_t v) { return (v + 7) & ~uint64_t{7}; }

}  // namespace

Catnap::Catnap(Clock& clock) : LibOS("catnap", clock, NullDmaRegistrar::Global()) {}

Catnap::~Catnap() {
  sched_.Shutdown();  // release fiber-held pinned buffers while the heap is alive
  for (auto& [qd, q] : queues_) {
    if (q.fd >= 0) {
      ::close(q.fd);
    }
  }
}

Catnap::QueueState* Catnap::Find(QueueDesc qd) {
  auto it = queues_.find(qd);
  return it == queues_.end() ? nullptr : &it->second;
}

QueueDesc Catnap::InstallFd(int fd, QKind kind, SocketType type) {
  const QueueDesc qd = next_qd_++;
  QueueState q;
  q.kind = kind;
  q.fd = fd;
  q.type = type;
  queues_[qd] = q;
  return qd;
}

Result<QueueDesc> Catnap::Socket(SocketType type) {
  const int sock_type =
      (type == SocketType::kStream ? SOCK_STREAM : SOCK_DGRAM) | SOCK_NONBLOCK;
  const int fd = ::socket(AF_INET, sock_type, 0);
  if (fd < 0) {
    return ErrnoToStatus(errno);
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  if (type == SocketType::kStream) {
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  }
  return InstallFd(fd, type == SocketType::kStream ? QKind::kTcp : QKind::kUdp, type);
}

Status Catnap::Bind(QueueDesc qd, SocketAddress local) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->fd < 0) {
    return Status::kBadQueueDescriptor;
  }
  sockaddr_in sa = ToSockaddr(local);
  if (::bind(q->fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa)) != 0) {
    return ErrnoToStatus(errno);
  }
  return Status::kOk;
}

Status Catnap::Listen(QueueDesc qd, int backlog) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kTcp) {
    return Status::kBadQueueDescriptor;
  }
  if (::listen(q->fd, backlog) != 0) {
    return ErrnoToStatus(errno);
  }
  q->kind = QKind::kTcpListener;
  return Status::kOk;
}

// Catnap's sockets are polled: a blocked attempt retries on the next scheduler round, and
// every attempt looks its queue up again, so a closed (and perhaps reused) fd is never touched.
Result<QToken> Catnap::Accept(QueueDesc qd) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kTcpListener) {
    return Status::kBadQueueDescriptor;
  }
  return RunBlocking(tokens_.Allocate(OpCode::kAccept, qd), [this, qd]() -> Attempt {
    QueueState* queue = Find(qd);
    if (queue == nullptr) {
      return Done(Status::kCancelled);
    }
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const int conn_fd =
        ::accept4(queue->fd, reinterpret_cast<sockaddr*>(&peer), &peer_len, SOCK_NONBLOCK);
    if (conn_fd < 0) {
      return errno == EAGAIN || errno == EWOULDBLOCK ? Attempt{Blocked{}}
                                                     : Attempt{Done(ErrnoToStatus(errno))};
    }
    const int one = 1;
    ::setsockopt(conn_fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    QResult r;
    r.new_qd = InstallFd(conn_fd, QKind::kTcp, SocketType::kStream);
    queues_[r.new_qd].connected = true;
    r.remote = FromSockaddr(peer);
    return r;
  });
}

Result<QToken> Catnap::Connect(QueueDesc qd, SocketAddress remote) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  const QToken qt = tokens_.Allocate(OpCode::kConnect, qd);
  sockaddr_in sa = ToSockaddr(remote);
  const int rc = ::connect(q->fd, reinterpret_cast<sockaddr*>(&sa), sizeof(sa));
  if (rc == 0 || q->kind == QKind::kUdp) {
    q->connected = true;
    QResult r;
    r.remote = remote;
    CompleteToken(qt, r);
    return qt;
  }
  if (errno != EINPROGRESS) {
    CompleteToken(qt, Done(ErrnoToStatus(errno)));
    return qt;
  }
  return RunBlocking(qt, [this, qd]() -> Attempt {
    QueueState* queue = Find(qd);
    if (queue == nullptr) {
      return Done(Status::kCancelled);
    }
    // A connected socket has a peer; otherwise SO_ERROR tells in-progress from failed.
    sockaddr_in peer{};
    socklen_t len = sizeof(peer);
    if (::getpeername(queue->fd, reinterpret_cast<sockaddr*>(&peer), &len) == 0) {
      queue->connected = true;
      QResult r;
      r.remote = FromSockaddr(peer);
      return r;
    }
    int so_error = 0;
    socklen_t err_len = sizeof(so_error);
    if (errno == ENOTCONN &&
        ::getsockopt(queue->fd, SOL_SOCKET, SO_ERROR, &so_error, &err_len) == 0 && so_error != 0) {
      return Done(ErrnoToStatus(so_error));
    }
    return Blocked{};
  });
}

Result<QToken> Catnap::Push(QueueDesc qd, const Sgarray& sga) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kFile) {
    // Append one framed record, then fsync for durability (the paper's logging setup).
    const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
    const size_t payload = sga.TotalBytes();
    std::vector<uint8_t> rec(AlignUp8(kFileHeaderSize + payload), 0);
    const uint32_t magic = kFileRecordMagic;
    const uint32_t len32 = static_cast<uint32_t>(payload);
    std::memcpy(rec.data(), &magic, 4);
    std::memcpy(rec.data() + 4, &len32, 4);
    size_t off = kFileHeaderSize;
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      std::memcpy(rec.data() + off, sga.segs[i].buf, sga.segs[i].len);
      off += sga.segs[i].len;
    }
    const ssize_t n = ::write(q->fd, rec.data(), rec.size());
    const bool durable = n == static_cast<ssize_t>(rec.size()) && ::fsync(q->fd) == 0;
    CompleteToken(qt, Done(durable ? Status::kOk : ErrnoToStatus(errno)));
    return qt;
  }
  if (q->kind == QKind::kUdp) {
    if (!q->connected) {
      return Status::kNotConnected;
    }
    const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
    iovec iov[kSgaMaxSegments];
    for (uint32_t i = 0; i < sga.num_segs; i++) {
      iov[i] = {sga.segs[i].buf, sga.segs[i].len};
    }
    msghdr msg{};
    msg.msg_iov = iov;
    msg.msg_iovlen = sga.num_segs;
    CompleteToken(qt, Done(::sendmsg(q->fd, &msg, 0) < 0 ? ErrnoToStatus(errno) : Status::kOk));
    return qt;
  }
  // TCP: try an inline gather write; finish leftovers in a coroutine on short writes.
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  iovec iov[kSgaMaxSegments];
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    iov[i] = {sga.segs[i].buf, sga.segs[i].len};
  }
  const ssize_t n = ::writev(q->fd, iov, static_cast<int>(sga.num_segs));
  const size_t total = sga.TotalBytes();
  if (n == static_cast<ssize_t>(total)) {
    CompleteToken(qt, Done(Status::kOk));
    return qt;
  }
  if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
    CompleteToken(qt, Done(ErrnoToStatus(errno)));
    return qt;
  }
  // Pin the application buffers for the remainder of the write: PDPIX lets the app free
  // immediately after push (UAF protection), so the coroutine must hold references (or copies
  // for foreign/small memory) rather than raw pointers.
  std::vector<Buffer> pinned;
  pinned.reserve(sga.num_segs);
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    pinned.push_back(Buffer::FromApp(alloc_, sga.segs[i].buf, sga.segs[i].len));
  }
  sched_.Spawn(PushSocketOp(qd, qt, q->fd, std::move(pinned), n < 0 ? 0 : static_cast<size_t>(n)));
  return qt;
}

Task<void> Catnap::PushSocketOp(QueueDesc qd, QToken qt, int fd, std::vector<Buffer> pinned,
                                size_t already_written) {
  size_t written = already_written;
  size_t total = 0;
  for (const Buffer& b : pinned) {
    total += b.size();
  }
  while (written < total) {
    // Rebuild the iovec past `written`.
    iovec iov[kSgaMaxSegments];
    int iovcnt = 0;
    size_t skip = written;
    for (const Buffer& b : pinned) {
      if (skip >= b.size()) {
        skip -= b.size();
        continue;
      }
      iov[iovcnt++] = {const_cast<uint8_t*>(b.data()) + skip, b.size() - skip};
      skip = 0;
    }
    const ssize_t n = ::writev(fd, iov, iovcnt);
    if (n > 0) {
      written += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK) {
      CompleteToken(qt, Done(ErrnoToStatus(errno)));
      co_return;
    }
    co_await Scheduler::Yield{};
    if (Find(qd) == nullptr) {
      CompleteToken(qt, Done(Status::kCancelled));
      co_return;
    }
  }
  CompleteToken(qt, Done(Status::kOk));
}

Result<QToken> Catnap::PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kUdp) {
    return Status::kBadQueueDescriptor;
  }
  const QToken qt = tokens_.Allocate(OpCode::kPush, qd);
  iovec iov[kSgaMaxSegments];
  for (uint32_t i = 0; i < sga.num_segs; i++) {
    iov[i] = {sga.segs[i].buf, sga.segs[i].len};
  }
  sockaddr_in sa = ToSockaddr(to);
  msghdr msg{};
  msg.msg_name = &sa;
  msg.msg_namelen = sizeof(sa);
  msg.msg_iov = iov;
  msg.msg_iovlen = sga.num_segs;
  CompleteToken(qt, Done(::sendmsg(q->fd, &msg, 0) < 0 ? ErrnoToStatus(errno) : Status::kOk));
  return qt;
}

Result<QToken> Catnap::Pop(QueueDesc qd) {
  QueueState* q = Find(qd);
  if (q == nullptr) {
    return Status::kBadQueueDescriptor;
  }
  if (q->kind == QKind::kFile) {
    const QToken qt = tokens_.Allocate(OpCode::kPop, qd);
    // Synchronous framed read at the cursor.
    uint8_t hdr[kFileHeaderSize];
    QResult r;
    const ssize_t n = ::pread(q->fd, hdr, sizeof(hdr), static_cast<off_t>(q->read_cursor));
    if (n == 0) {
      r.status = Status::kEndOfFile;
    } else if (n != static_cast<ssize_t>(sizeof(hdr))) {
      r.status = Status::kIoError;
    } else {
      uint32_t magic = 0;
      uint32_t len = 0;
      std::memcpy(&magic, hdr, 4);
      std::memcpy(&len, hdr + 4, 4);
      if (magic != kFileRecordMagic) {
        r.status = Status::kProtocolError;
      } else {
        void* buf = alloc_.Alloc(len == 0 ? 1 : len);
        if (::pread(q->fd, buf, len, static_cast<off_t>(q->read_cursor + kFileHeaderSize)) !=
            static_cast<ssize_t>(len)) {
          alloc_.Free(buf);
          r.status = Status::kIoError;
        } else {
          q->read_cursor += AlignUp8(kFileHeaderSize + len);
          r.status = Status::kOk;
          r.sga = Sgarray::Of(buf, len);
        }
      }
    }
    CompleteToken(qt, r);
    return qt;
  }
  return RunBlocking(tokens_.Allocate(OpCode::kPop, qd), [this, qd]() -> Attempt {
    QueueState* queue = Find(qd);
    if (queue == nullptr) {
      return Done(Status::kCancelled);
    }
    void* buf = alloc_.Alloc(kPopChunk);
    if (buf == nullptr) {
      return Done(Status::kNoMemory);  // the input stays queued in the kernel socket
    }
    sockaddr_in peer{};
    socklen_t peer_len = sizeof(peer);
    const bool datagram = queue->type == SocketType::kDatagram;
    const ssize_t n =
        datagram ? ::recvfrom(queue->fd, buf, kPopChunk, 0, reinterpret_cast<sockaddr*>(&peer),
                              &peer_len)
                 : ::read(queue->fd, buf, kPopChunk);
    if (n > 0) {
      QResult r;
      r.sga = Sgarray::Of(buf, static_cast<uint32_t>(n));
      if (datagram) {
        r.remote = FromSockaddr(peer);
      }
      return r;
    }
    const int err = errno;
    alloc_.Free(buf);
    if (n == 0 && !datagram) {
      return Done(Status::kEndOfFile);
    }
    if (n < 0 && err != EAGAIN && err != EWOULDBLOCK) {
      return Done(ErrnoToStatus(err));
    }
    return Blocked{};
  });
}

Result<QueueDesc> Catnap::Open(std::string_view path) {
  const std::string p(path);
  const int fd = ::open(p.c_str(), O_RDWR | O_CREAT | O_APPEND, 0644);
  if (fd < 0) {
    return ErrnoToStatus(errno);
  }
  return InstallFd(fd, QKind::kFile, SocketType::kStream);
}

Status Catnap::Seek(QueueDesc qd, uint64_t offset) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  q->read_cursor = offset;
  return Status::kOk;
}

Status Catnap::Truncate(QueueDesc qd, uint64_t offset) {
  QueueState* q = Find(qd);
  if (q == nullptr || q->kind != QKind::kFile) {
    return Status::kBadQueueDescriptor;
  }
  // Log-GC semantics: drop everything *before* offset is not expressible on a flat file, so
  // Catnap interprets truncate as cutting the tail back to `offset`, like ftruncate.
  if (::ftruncate(q->fd, static_cast<off_t>(offset)) != 0) {
    return ErrnoToStatus(errno);
  }
  return Status::kOk;
}

Status Catnap::Close(QueueDesc qd) {
  auto it = queues_.find(qd);
  if (it == queues_.end()) {
    return Status::kBadQueueDescriptor;
  }
  if (it->second.fd >= 0) {
    ::close(it->second.fd);
  }
  queues_.erase(it);
  return Status::kOk;
}

}  // namespace demi
