#include "analognf/arch/port_runtime.hpp"

#include <stdexcept>
#include <utility>

#include "analognf/arch/controller.hpp"
#include "analognf/common/clock.hpp"
#include "analognf/telemetry/metrics.hpp"

namespace {

// Queued mailbox items per port; Apply blocks when full (backpressure,
// never drops).
constexpr std::size_t kMailboxDepth = 8;

}  // namespace

namespace analognf::arch {

// ------------------------------------------------------------ PortRuntime

PortRuntime::PortRuntime(SwitchConfig config, const SharedTables* tables)
    : switch_(std::move(config), tables),
      worker_([this] { WorkerLoop(); }) {}

PortRuntime::~PortRuntime() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stop_ = true;
    // A worker parked on a still-attached ring watches only its bell.
    if (ring_ != nullptr) ring_->Wake();
  }
  cv_submit_.notify_all();
  worker_.join();
}

void PortRuntime::Enqueue(Item item) {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_state_.wait(lock, [this] { return mailbox_.size() < kMailboxDepth; });
  mailbox_.push_back(std::move(item));
  ++in_flight_;
  // The worker swaps ring_ under this mutex, so the ring rung here is
  // attached (alive) and is the one a parked worker sleeps on.
  if (ring_ != nullptr) ring_->Wake();
  lock.unlock();
  cv_submit_.notify_one();
}

void PortRuntime::Apply(Command command) {
  if (!command) {
    throw std::invalid_argument("PortRuntime::Apply: empty command");
  }
  Item item;
  item.command = std::move(command);
  Enqueue(std::move(item));
}

void PortRuntime::WaitIdle() {
  std::unique_lock<std::mutex> lock(mutex_);
  cv_state_.wait(lock, [this] { return in_flight_ == 0; });
}

void PortRuntime::AttachRing(IngressRing* ring, RingHook hook) {
  if (ring == nullptr) {
    throw std::invalid_argument("PortRuntime::AttachRing: null ring");
  }
  Item item;
  item.ring_op = true;
  item.ring = ring;
  item.hook = std::move(hook);
  Enqueue(std::move(item));
}

void PortRuntime::DetachRing() {
  Item item;
  item.ring_op = true;
  Enqueue(std::move(item));
  // The detach lands behind any in-flight ring batch (the worker is
  // sequential), so idle here implies the worker is done with the ring.
  WaitIdle();
}

void PortRuntime::WorkerLoop() {
  // A process-unique slot keeps this thread's sharded telemetry writes
  // off every other thread's counter cells (exactness, not just
  // contention avoidance).
  slot_.store(telemetry::RegisterThreadSlot(), std::memory_order_release);
  // Only this thread writes ring_ (under mutex_, as it pops a ring_op
  // item), so it reads ring_ here without the lock. The hook is purely
  // worker-local.
  RingHook ring_hook;
  std::size_t idle_spins = 0;
  for (;;) {
    // Doorbell snapshot before looking for work: any push or mailbox
    // item that lands after this read moves the bell and ends Park().
    const std::uint32_t seen = ring_ != nullptr ? ring_->Bell() : 0;
    Item item;
    bool have_item = false;
    {
      std::unique_lock<std::mutex> lock(mutex_);
      if (ring_ == nullptr) {
        cv_submit_.wait(lock, [this] { return stop_ || !mailbox_.empty(); });
      }
      if (!mailbox_.empty()) {
        item = std::move(mailbox_.front());
        mailbox_.pop_front();
        have_item = true;
        if (item.ring_op) ring_ = item.ring;
      } else if (stop_) {
        // Stop drains the mailbox but not an attached ring: batches
        // still in it stay with whoever attached it.
        return;
      }
    }
    if (have_item) {
      cv_state_.notify_all();  // a mailbox slot freed up
      if (item.ring_op) {
        ring_hook = std::move(item.hook);
      } else {
        item.command(switch_);
      }
      {
        std::lock_guard<std::mutex> lock(mutex_);
        --in_flight_;
      }
      cv_state_.notify_all();
      idle_spins = 0;
      continue;
    }
    // Mailbox empty, ring attached: run to completion. Mailbox items
    // re-checked every iteration keep command latency bounded by one
    // batch.
    Batch batch;
    if (ring_->TryPop(batch)) {
      const std::uint64_t start_ns = SteadyNowNs();
      switch_.InjectBatch(batch.packets, batch.now_s);
      if (ring_hook) {
        RingBatchInfo info;
        info.packets = batch.packets.size();
        info.now_s = batch.now_s;
        info.enqueue_ns = batch.enqueue_ns;
        info.start_ns = start_ns;
        info.done_ns = SteadyNowNs();
        ring_hook(info);
      }
      idle_spins = 0;
      continue;
    }
    // Ring momentarily empty: spin briefly (producer is usually just
    // behind), then park on the ring's doorbell so an idle port sleeps
    // until work arrives. The ring's producer, Enqueue() and the
    // destructor all ring it (common/spsc_ring.hpp has the protocol).
    if (++idle_spins < 64) {
      std::this_thread::yield();
      continue;
    }
    ring_->Park(seen);
  }
}

// ------------------------------------------------------------ SwitchGroup

SwitchGroup::SwitchGroup(std::size_t ports, SwitchConfig config)
    : tables_(config.digital_technology, config.port_count) {
  if (ports == 0) {
    throw std::invalid_argument("SwitchGroup: zero ports");
  }
  // Widen the default telemetry shard count so every worker's slot
  // (registered after construction) still gets its own cell. An
  // explicit shard count is left alone.
  if (config.telemetry.shards == 0) {
    config.telemetry.shards = telemetry::ThreadSlotUpperBound() + ports;
  }
  runtimes_.reserve(ports);
  for (std::size_t p = 0; p < ports; ++p) {
    runtimes_.push_back(std::make_unique<PortRuntime>(config, &tables_));
  }
}

std::size_t SwitchGroup::AddRoute(std::uint32_t dst_ip, int prefix_len,
                                  std::size_t port) {
  return tables_.AddRoute(dst_ip, prefix_len, port);
}

void SwitchGroup::WithdrawRoute(std::size_t route_index) {
  tables_.WithdrawRoute(route_index);
}

std::size_t SwitchGroup::AddFirewallRule(const FirewallPattern& pattern,
                                         bool permit, std::int32_t priority) {
  return tables_.AddFirewallRule(pattern, permit, priority);
}

void SwitchGroup::EraseFirewallRule(std::size_t rule_index) {
  tables_.EraseFirewallRule(rule_index);
}

void SwitchGroup::Commit() { tables_.Commit(); }

void SwitchGroup::ProgramAqmTarget(double target_delay_s,
                                   double max_deviation_s) {
  for (auto& runtime : runtimes_) {
    runtime->Apply([target_delay_s, max_deviation_s](CognitiveSwitch& sw) {
      arch::ProgramAqmTarget(sw, target_delay_s, max_deviation_s);
    });
  }
}

void SwitchGroup::Submit(std::size_t port, std::vector<net::Packet> packets,
                         double now_s) {
  runtimes_.at(port)->Apply(
      [packets = std::move(packets), now_s](CognitiveSwitch& sw) {
        sw.InjectBatch(packets, now_s);
      });
}

void SwitchGroup::WaitIdle() {
  for (auto& runtime : runtimes_) runtime->WaitIdle();
}

SwitchStats SwitchGroup::AggregateStats() const {
  SwitchStats total;
  for (const auto& runtime : runtimes_) total += runtime->device().stats();
  return total;
}

double SwitchGroup::TotalEnergyJ() const {
  double total = 0.0;
  for (const auto& runtime : runtimes_) {
    total += runtime->device().ledger().TotalJ();
  }
  return total;
}

}  // namespace analognf::arch
