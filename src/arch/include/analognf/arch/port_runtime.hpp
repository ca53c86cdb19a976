// Concurrent multi-port runtime: N per-port data planes over one set of
// epoch-published table snapshots.
//
// The paper's switch has many ports fed in parallel while the cognitive
// controller keeps reprogramming tables (prog_pCAM / update_pCAM, route
// updates). This layer maps that onto threads without putting a single
// lock on the packet path:
//
//   * SharedTables (switch.hpp) — the controller-owned firewall TCAM and
//     LPM table. Mutations stage; Commit() compiles and publishes an
//     immutable snapshot RCU-style (common/snapshot.hpp).
//   * PortRuntime — one worker thread per port, running a bounded
//     mailbox of control commands and an attached SPSC ring of ingress
//     batches against a private CognitiveSwitch that reads the group's
//     SharedTables (a standalone switch reads its own the same way).
//     Each batch acquires the published snapshots; each port keeps its
//     own energy ledger, stats and telemetry (the worker registers a
//     telemetry thread slot so sharded counters stay exact). Table searches run
//     on this worker too: the ports are the only data-plane threads.
//   * SwitchGroup — the assembly: the controller thread stages and
//     commits table updates and broadcasts pCAM reprogramming commands;
//     data sources push batches into each port's ring, or Submit() them
//     as inject commands through the mailbox. Commands apply at batch
//     boundaries on the owning worker, so every switch stays
//     single-threaded internally — the concurrency lives entirely in the
//     snapshot layer, where readers always see either the old or the new
//     fully-compiled table.
//
// See docs/ARCHITECTURE.md, "Concurrency contract".
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "analognf/arch/switch.hpp"
#include "analognf/common/spsc_ring.hpp"

namespace analognf::arch {

// One port's data plane: a dedicated worker thread, a bounded mailbox of
// control commands, an optional ingress ring, and a private
// CognitiveSwitch reading the group's SharedTables.
class PortRuntime {
 public:
  // An ingress batch bound for this port's ring. Packets are owned by
  // the batch (moved in) so the producer can retire its buffers
  // immediately.
  struct Batch {
    std::vector<net::Packet> packets;
    double now_s = 0.0;
    // Optional steady-clock stamp set by ring producers; rides along so
    // the ring-batch hook can report enqueue-to-completion sojourn.
    std::uint64_t enqueue_ns = 0;
  };
  // A control command; runs on the worker between ring batches with
  // exclusive access to the port's switch. Injecting packets from a
  // command is how SwitchGroup::Submit feeds a port without a ring.
  using Command = std::function<void(CognitiveSwitch&)>;

  // Builds the port's switch as a reader of `tables` and starts the
  // worker. `tables` must outlive the runtime. The mailbox is bounded;
  // Apply blocks when it is full (backpressure, never drops).
  PortRuntime(SwitchConfig config, const SharedTables* tables);
  ~PortRuntime();

  PortRuntime(const PortRuntime&) = delete;
  PortRuntime& operator=(const PortRuntime&) = delete;

  // Enqueues a control command (blocks while the mailbox is full). It
  // applies at a ring-batch boundary, in order with every other command.
  void Apply(Command command);
  // Blocks until every enqueued command has fully executed.
  void WaitIdle();

  // ---- ring-fed run-to-completion mode: the port's data path ----
  // One lock-free SPSC ring of ingress batches; the port worker is the
  // single consumer, one producer thread pushes.
  using IngressRing = analognf::SpscRing<Batch>;
  // Completion record handed to the (optional) per-batch hook, invoked
  // on the worker thread after each ring batch retires.
  struct RingBatchInfo {
    std::size_t packets = 0;
    double now_s = 0.0;            // the batch's model arrival time
    std::uint64_t enqueue_ns = 0;  // producer stamp (0 if unset)
    std::uint64_t start_ns = 0;    // processing began (steady clock)
    std::uint64_t done_ns = 0;     // processing finished
  };
  using RingHook = std::function<void(const RingBatchInfo&)>;

  // Attaches `ring` as the worker's run-to-completion ingress: whenever
  // the mailbox is empty the worker pops the ring and processes batches
  // back-to-back; when both are empty it spins briefly, then parks on
  // the ring's doorbell (SpscRing::Park). Pushes, mailbox items and
  // teardown ring that bell, so an idle port sleeps without a poll
  // timer and wakes as soon as work arrives. Mailbox commands still
  // take priority, so they keep applying at batch boundaries. The
  // attach itself travels the mailbox, so it also lands at a batch
  // boundary. `ring` must stay
  // alive until DetachRing() returns, or until the runtime is destroyed
  // if it is never detached.
  void AttachRing(IngressRing* ring, RingHook hook = {});
  // Detaches the current ring. Blocks until the worker has retired any
  // in-flight ring batch and will no longer touch the ring; pending
  // batches still in the ring are NOT drained (the caller owns them).
  // Callers wanting a full drain wait for ring->Empty() first — after
  // that, DetachRing() returning implies every popped batch has fully
  // executed.
  void DetachRing();

  // The port's switch. Single-threaded object: touch it only from
  // commands (which run on the worker) or after WaitIdle() with no
  // further Apply in flight.
  CognitiveSwitch& device() { return switch_; }
  const CognitiveSwitch& device() const { return switch_; }

  // The worker's registered telemetry slot (telemetry::CurrentThreadSlot()
  // on the worker); 0 until the worker has started up.
  std::size_t worker_slot() const {
    return slot_.load(std::memory_order_acquire);
  }

 private:
  struct Item {
    Command command;  // run on the worker unless ring_op is set
    // Ring control: when set, the worker swaps its ring pointer/hook to
    // these values (null detaches) instead of running `command`. Routed
    // through the mailbox so the swap happens on the worker at a batch
    // boundary.
    bool ring_op = false;
    IngressRing* ring = nullptr;
    RingHook hook;
  };

  // Waits for mailbox space, then queues `item` for the worker.
  void Enqueue(Item item);
  void WorkerLoop();

  CognitiveSwitch switch_;
  std::mutex mutex_;
  std::condition_variable cv_submit_;  // ringless worker waits: work
  std::condition_variable cv_state_;   // submitters wait: space / idle
  std::deque<Item> mailbox_;
  std::size_t in_flight_ = 0;  // queued + currently executing
  bool stop_ = false;
  // The attached ring. Written only by the worker, under mutex_; read
  // by the worker freely and by Enqueue()/~PortRuntime() under mutex_
  // to ring its doorbell — so they never touch a detached ring.
  IngressRing* ring_ = nullptr;
  std::atomic<std::size_t> slot_{0};
  std::thread worker_;  // last: starts after all state is ready
};

// A multi-port switch assembly: one SharedTables control plane, one
// PortRuntime per port. The controller thread owns table mutations and
// Commit(); any thread may submit batches (one submitter per port at a
// time keeps arrival order deterministic). A ring attached through
// runtime(port).AttachRing() is the port's lock-free data path.
class SwitchGroup {
 public:
  // `ports` port runtimes, each configured from `config` (telemetry
  // shard counts are widened to cover every worker's slot).
  SwitchGroup(std::size_t ports, SwitchConfig config);

  std::size_t ports() const { return runtimes_.size(); }

  // ------------------------------------------------ control plane
  // Stages a route / firewall rule into the shared tables (returning
  // its stable index) or withdraws one previously staged+committed. Not
  // visible to the data plane until Commit().
  std::size_t AddRoute(std::uint32_t dst_ip, int prefix_len,
                       std::size_t port);
  void WithdrawRoute(std::size_t route_index);
  std::size_t AddFirewallRule(const FirewallPattern& pattern, bool permit,
                              std::int32_t priority);
  void EraseFirewallRule(std::size_t rule_index);
  // Publishes all staged table mutations as fresh snapshots — deltas
  // applied at a batch boundary: in-flight batches keep the snapshot
  // they already acquired; later batches see the new one. Small staged
  // sets patch the published snapshots instead of recompiling them
  // (common/table_delta.hpp; see tables().firewall.commit_stats()).
  void Commit();
  // Broadcasts an analog AQM reprogram (update_pCAM) to every port,
  // applied at each port's next batch boundary.
  void ProgramAqmTarget(double target_delay_s, double max_deviation_s);

  // ------------------------------------------------ data plane
  // Enqueues a command on `port`'s mailbox that injects `packets` at
  // `now_s` (blocks while full; FIFO with Apply and ring attach/detach).
  void Submit(std::size_t port, std::vector<net::Packet> packets,
              double now_s);
  // Blocks until every port has run every enqueued command.
  void WaitIdle();

  // ------------------------------------------------ observability
  SharedTables& tables() { return tables_; }
  const SharedTables& tables() const { return tables_; }
  PortRuntime& runtime(std::size_t port) { return *runtimes_.at(port); }
  // The port's switch; see PortRuntime::device() for the threading rule.
  CognitiveSwitch& device(std::size_t port) {
    return runtimes_.at(port)->device();
  }
  // Sum of every port's SwitchStats. Call only while idle (after
  // WaitIdle with no concurrent submitters).
  SwitchStats AggregateStats() const;
  // Sum of every port's canonical ledger, in joules.
  double TotalEnergyJ() const;

 private:
  SharedTables tables_;
  std::vector<std::unique_ptr<PortRuntime>> runtimes_;
};

}  // namespace analognf::arch
