// Catnap: the POSIX library OS (paper §6.1), for developing and testing µs-scale applications
// without kernel-bypass hardware.
//
// Implements PDPIX over real kernel sockets in non-blocking mode, *polling* read/write instead
// of sleeping in epoll — which is why Catnap has lower latency than a classic epoll loop but
// burns a core (the trade-off §7.3 measures). No memory-management integration is needed: POSIX
// I/O is copy-based, so buffers are plain DMA-heap allocations handed across the API.
//
// Storage queues are files on the host filesystem with fsync-on-push durability, mirroring the
// paper's Linux/ext4 comparison configuration.

#ifndef SRC_LIBOSES_CATNAP_H_
#define SRC_LIBOSES_CATNAP_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "src/core/libos.h"

namespace demi {

class Catnap final : public LibOS {
 public:
  explicit Catnap(Clock& clock);
  ~Catnap() override;

  Result<QueueDesc> Socket(SocketType type) override;
  [[nodiscard]] Status Bind(QueueDesc qd, SocketAddress local) override;
  [[nodiscard]] Status Listen(QueueDesc qd, int backlog) override;
  Result<QToken> Accept(QueueDesc qd) override;
  Result<QToken> Connect(QueueDesc qd, SocketAddress remote) override;
  [[nodiscard]] Status Close(QueueDesc qd) override;
  Result<QueueDesc> Open(std::string_view path) override;
  [[nodiscard]] Status Seek(QueueDesc qd, uint64_t offset) override;
  [[nodiscard]] Status Truncate(QueueDesc qd, uint64_t offset) override;
  Result<QToken> Push(QueueDesc qd, const Sgarray& sga) override;
  Result<QToken> PushTo(QueueDesc qd, const Sgarray& sga, SocketAddress to) override;
  Result<QToken> Pop(QueueDesc qd) override;

  // Maximum bytes returned by one socket pop.
  static constexpr size_t kPopChunk = 64 * 1024;

 private:
  enum class QKind : uint8_t { kTcp, kTcpListener, kUdp, kFile };

  struct QueueState {
    QKind kind;
    int fd = -1;
    SocketType type = SocketType::kStream;
    bool connected = false;
    uint64_t read_cursor = 0;  // files
  };

  QueueState* Find(QueueDesc qd);

  Task<void> PushSocketOp(QueueDesc qd, QToken qt, int fd, std::vector<Buffer> pinned,
                          size_t already_written);

  QueueDesc InstallFd(int fd, QKind kind, SocketType type);

  std::unordered_map<QueueDesc, QueueState> queues_;
};

}  // namespace demi

#endif  // SRC_LIBOSES_CATNAP_H_
