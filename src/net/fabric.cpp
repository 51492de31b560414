#include "net/fabric.h"

#include <chrono>

namespace pdw::net {

Fabric::Fabric(int nodes) {
  PDW_CHECK_GT(nodes, 0);
  mailboxes_.reserve(size_t(nodes));
  for (int i = 0; i < nodes; ++i)
    mailboxes_.push_back(std::make_unique<Mailbox>());
  traffic_.reset(nodes);
  link_ordinal_.assign(size_t(nodes) * size_t(nodes), 0);
}

void Fabric::post_receive(int node) {
  Mailbox& mb = box(node);
  std::lock_guard<std::mutex> lock(mb.mu);
  ++mb.credits;
}

bool Fabric::enqueue(Mailbox& mb, Message msg) {
  if (msg.bulk) {
    if (mb.credits <= 0) return false;
    --mb.credits;
  }
  mb.counters.recv_bytes += msg.wire_bytes();
  ++mb.counters.recv_messages;
  ++mb.deliveries;
  mb.queue.push_back(std::move(msg));
  return true;
}

void Fabric::pop(Mailbox& mb, Message* out) {
  *out = std::move(mb.queue.front());
  mb.queue.pop_front();
  if (drained(mb)) mb.cv.notify_all();
}

void Fabric::release_delayed(Mailbox& mb, bool force) {
  if (mb.delayed.empty()) return;
  for (auto it = mb.delayed.begin(); it != mb.delayed.end();) {
    if (force || --it->hold <= 0) {
      // A bulk message released into a node with no posted buffer is lost —
      // it arrived late, after the buffers were consumed (GM would drop it).
      if (!enqueue(mb, std::move(it->msg))) ++mb.counters.dropped_messages;
      it = mb.delayed.erase(it);
    } else {
      ++it;
    }
  }
}

SendStatus Fabric::send(int src, int dst, Message msg) {
  msg.src = src;
  const size_t bytes = msg.wire_bytes();

  {
    Mailbox& sender = box(src);
    std::lock_guard<std::mutex> lock(sender.mu);
    if (sender.dead) return SendStatus::kSrcDead;
    sender.counters.sent_bytes += bytes;
    ++sender.counters.sent_messages;
  }

  uint64_t link_ordinal;
  {
    std::lock_guard<std::mutex> lock(traffic_mu_);
    traffic_.add(src, dst, bytes);
    link_ordinal = link_ordinal_[size_t(src) * size_t(nodes()) + size_t(dst)]++;
  }

  FaultDecision fate;
  Mailbox& mb = box(dst);
  {
    std::unique_lock<std::mutex> lock(mb.mu);
    if (injector_)
      fate = injector_->decide(src, dst, link_ordinal, mb.deliveries,
                               msg.payload.size());

    if (fate.crash_dst) {
      lock.unlock();
      kill(dst);
      return SendStatus::kOk;  // the message dies with the node
    }
    if (mb.dead) return SendStatus::kOk;  // silently lost; sender can't know
    if (fate.drop) {
      ++mb.counters.dropped_messages;
      return SendStatus::kOk;
    }
    if (fate.corrupt && injector_) {
      // Copy-on-write before flipping bytes: the sender's retransmit queue
      // pins the same block, and a retransmission must resend the *original*
      // bytes, not the corrupted ones.
      msg.payload.make_unique();
      injector_->corrupt_payload(src, dst, link_ordinal,
                                 msg.payload.mutable_span());
    }

    // Flow control: a bulk message needs a posted buffer *now*. This is the
    // typed replacement for the old hard CHECK — the reliable layer retries.
    // The message never reached the wire (GM's sender-side token scheme), so
    // undo the traffic accounting; the attempt still consumed a link ordinal,
    // keeping fault schedules independent of flow-control timing.
    if (msg.bulk && mb.credits <= 0 && fate.delay_hold == 0) {
      lock.unlock();
      {
        Mailbox& sender = box(src);
        std::lock_guard<std::mutex> sl(sender.mu);
        sender.counters.sent_bytes -= bytes;
        --sender.counters.sent_messages;
      }
      {
        std::lock_guard<std::mutex> tl(traffic_mu_);
        traffic_.at(src, dst) -= bytes;
      }
      return SendStatus::kNoCredit;
    }

    Message dup_copy;
    if (fate.dup) dup_copy = msg;

    if (fate.delay_hold > 0) {
      mb.delayed.push_back(Delayed{std::move(msg), fate.delay_hold});
    } else {
      PDW_CHECK(enqueue(mb, std::move(msg)));
      release_delayed(mb, /*force=*/false);
    }
    if (fate.dup) enqueue(mb, std::move(dup_copy));  // dup w/o credit: lost
  }
  mb.cv.notify_all();
  return SendStatus::kOk;
}

bool Fabric::receive(int node, Message* out) {
  Mailbox& mb = box(node);
  std::unique_lock<std::mutex> lock(mb.mu);
  mb.cv.wait(lock, [&] {
    return !mb.queue.empty() || mb.dead || shutdown_.load();
  });
  if (mb.dead || mb.queue.empty()) return false;
  pop(mb, out);
  return true;
}

RecvStatus Fabric::receive_for(int node, double timeout_s, Message* out) {
  Mailbox& mb = box(node);
  std::unique_lock<std::mutex> lock(mb.mu);
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  const bool ready = mb.cv.wait_until(lock, deadline, [&] {
    return !mb.queue.empty() || mb.dead || shutdown_.load() || mb.woken;
  });
  if (mb.dead) return RecvStatus::kDead;
  if (!mb.queue.empty()) {
    pop(mb, out);
    return RecvStatus::kOk;
  }
  if (shutdown_.load()) return RecvStatus::kShutdown;
  if (mb.woken) {
    mb.woken = false;
    return RecvStatus::kWoken;
  }
  PDW_CHECK(!ready);
  // Timed out: any fault-delayed messages now arrive "late".
  if (!mb.delayed.empty()) {
    release_delayed(mb, /*force=*/true);
    if (!mb.queue.empty()) {
      pop(mb, out);
      return RecvStatus::kOk;
    }
  }
  return RecvStatus::kTimeout;
}

void Fabric::kill(int node) {
  Mailbox& mb = box(node);
  {
    std::lock_guard<std::mutex> lock(mb.mu);
    mb.dead = true;
    mb.queue.clear();
    mb.delayed.clear();
    mb.credits = 0;
  }
  mb.cv.notify_all();
}

bool Fabric::is_dead(int node) const {
  const Mailbox& mb = *mailboxes_[size_t(node)];
  std::lock_guard<std::mutex> lock(mb.mu);
  return mb.dead;
}

NodeCounters Fabric::counters(int node) const {
  const Mailbox& mb = *mailboxes_[size_t(node)];
  std::lock_guard<std::mutex> lock(mb.mu);
  return mb.counters;
}

TrafficMatrix Fabric::traffic_matrix() const {
  std::lock_guard<std::mutex> lock(traffic_mu_);
  return traffic_;
}

bool Fabric::quiescent() const {
  for (const auto& mb : mailboxes_) {
    std::lock_guard<std::mutex> lock(mb->mu);
    if (!drained(*mb)) return false;
  }
  return true;
}

bool Fabric::wait_quiescent(double timeout_s) {
  const auto deadline =
      std::chrono::steady_clock::now() +
      std::chrono::duration_cast<std::chrono::steady_clock::duration>(
          std::chrono::duration<double>(timeout_s));
  // Consuming one mailbox can refill another (acks flow back), so repeat
  // until one pass finds every mailbox drained without waiting.
  while (true) {
    bool waited = false;
    for (auto& mb : mailboxes_) {
      std::unique_lock<std::mutex> lock(mb->mu);
      if (drained(*mb)) continue;
      waited = true;
      if (!mb->cv.wait_until(lock, deadline, [&] { return drained(*mb); }))
        return false;
    }
    if (!waited) return true;
  }
}

void Fabric::shutdown() {
  shutdown_.store(true);
  for (auto& mb : mailboxes_) {
    // Take each lock once so sleeping receivers observe the flag.
    std::lock_guard<std::mutex> lock(mb->mu);
  }
  for (auto& mb : mailboxes_) mb->cv.notify_all();
}

void Fabric::wake(int node) {
  Mailbox& mb = box(node);
  {
    std::lock_guard<std::mutex> lock(mb.mu);
    mb.woken = true;
  }
  mb.cv.notify_all();
}

}  // namespace pdw::net
