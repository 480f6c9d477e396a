#include "src/liboses/cattree.h"

#include "src/memory/dma.h"

namespace demi {

Cattree::Cattree(SimBlockDevice& disk, Clock& clock)
    : LibOS("cattree", clock, NullDmaRegistrar::Global()),
      storage_(disk, sched_, alloc_, tokens_),
      disk_(&disk) {
  disk_->RegisterMetrics(metrics_);
  disk_->SetTracer(&tracer_);
  storage_.log().RegisterMetrics(metrics_);
  sched_.Spawn(FastPathFiber());
}

Cattree::~Cattree() {
  shutdown_ = true;
  disk_->SetTracer(nullptr);  // the external device may outlive this libOS's tracer
  sched_.Shutdown();  // release fiber-held buffers while the heap is alive
}

Task<void> Cattree::FastPathFiber() {
  while (!shutdown_) {
    // Poll SPDK completion queues and wake blocked append/read coroutines (§6.4).
    storage_.Poll();
    co_await Scheduler::Yield{};
  }
}

}  // namespace demi
