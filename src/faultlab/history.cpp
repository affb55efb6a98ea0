#include "faultlab/history.hpp"

#include <algorithm>
#include <sstream>

namespace heron::faultlab {

namespace {

std::string uid_str(amcast::MsgUid uid) {
  std::ostringstream os;
  os << "c" << amcast::uid_client(uid) << "#" << amcast::uid_seq(uid);
  return os.str();
}

std::string cmd_str(std::uint32_t client, std::uint64_t seq) {
  std::ostringstream os;
  os << "c" << client << "/s" << seq;
  return os.str();
}

}  // namespace

void HistoryRecorder::attach(core::System& sys) {
  sys_ = &sys;
  for (core::GroupId g = 0; g < sys.partitions(); ++g) {
    for (int r = 0; r < sys.replicas_per_partition(); ++r) {
      sys.amcast().endpoint(g, r).set_delivery_observer(
          [this, g, r](const amcast::Delivery& d) {
            deliveries_.push_back(DeliveryEvent{g, r, d.uid, d.tmp, d.dst,
                                                d.lease, d.epoch,
                                                sys_->simulator().now()});
          });
    }
  }
  sys.set_attempt_observer([this](std::uint32_t client, std::uint64_t seq,
                                  amcast::MsgUid uid, amcast::DstMask dst,
                                  int attempt) {
    invokes_.push_back(
        InvokeEvent{client, seq, uid, dst, attempt, sys_->simulator().now()});
  });
  sys.set_outcome_observer([this](std::uint32_t client, std::uint64_t seq,
                                  core::SubmitStatus status, int attempts) {
    outcomes_[{client, seq}] =
        OutcomeEvent{status, attempts, sys_->simulator().now()};
  });
  sys.set_exec_observer([this](core::GroupId g, int r, std::uint32_t client,
                               std::uint64_t seq, amcast::MsgUid uid,
                               core::Tmp tmp) {
    execs_.push_back(ExecEvent{g, r, client, seq, uid, tmp});
  });
}

std::vector<Violation> check_amcast_properties(const HistoryRecorder& history,
                                               core::System& sys,
                                               const CrashSet& ever_crashed) {
  std::vector<Violation> out;
  auto violation = [&out](const char* oracle, const std::string& detail) {
    out.push_back(Violation{oracle, detail});
  };

  // Every attempt uid is a legitimate message; multiple uids may carry
  // the same logical command.
  std::set<amcast::MsgUid> invoked;
  for (const auto& inv : history.invokes()) invoked.insert(inv.uid);

  // Per-replica delivery sequences + global uid <-> timestamp maps.
  std::map<std::pair<std::int32_t, int>, std::vector<const DeliveryEvent*>>
      per_replica;
  std::map<amcast::MsgUid, std::uint64_t> uid_tmp;
  std::map<std::uint64_t, amcast::MsgUid> tmp_uid;
  // uid -> groups that delivered it, and per (group, replica) dedupe.
  std::map<amcast::MsgUid, std::set<std::int32_t>> delivered_groups;
  std::map<amcast::MsgUid, std::map<std::int32_t, std::set<int>>>
      delivered_by;

  for (const auto& d : history.deliveries()) {
    per_replica[{d.group, d.rank}].push_back(&d);

    // Integrity: only invoked messages (when invocations were recorded),
    // only at destination groups, at most once per replica. Lease-grant
    // markers come from internal endpoints that fire no attempt observer,
    // so they are exempt from the uninvoked check (but not from the
    // order, timestamp and agreement checks below).
    if (!d.lease && !d.epoch && !invoked.empty() && !invoked.contains(d.uid)) {
      violation("integrity", "replica g" + std::to_string(d.group) + ".r" +
                                 std::to_string(d.rank) +
                                 " delivered uninvoked " + uid_str(d.uid));
    }
    if (!amcast::dst_contains(d.dst, d.group)) {
      violation("integrity", "g" + std::to_string(d.group) +
                                 " is not a destination of " + uid_str(d.uid));
    }
    if (!delivered_by[d.uid][d.group].insert(d.rank).second) {
      violation("integrity", "g" + std::to_string(d.group) + ".r" +
                                 std::to_string(d.rank) +
                                 " delivered " + uid_str(d.uid) + " twice");
    }
    delivered_groups[d.uid].insert(d.group);

    // Uniform timestamps: all deliveries of a uid agree on tmp; tmps are
    // globally unique across uids.
    if (auto [it, inserted] = uid_tmp.try_emplace(d.uid, d.tmp);
        !inserted && it->second != d.tmp) {
      violation("uniform-timestamps",
                uid_str(d.uid) + " delivered with tmp " +
                    std::to_string(d.tmp) + " and " +
                    std::to_string(it->second));
    }
    if (auto [it, inserted] = tmp_uid.try_emplace(d.tmp, d.uid);
        !inserted && it->second != d.uid) {
      violation("uniform-timestamps",
                "tmp " + std::to_string(d.tmp) + " assigned to both " +
                    uid_str(d.uid) + " and " + uid_str(it->second));
    }
  }

  // Total/prefix order: per-replica delivery timestamps strictly increase.
  // Combined with globally unique timestamps this gives pairwise prefix
  // consistency and acyclicity.
  for (const auto& [key, seq] : per_replica) {
    for (std::size_t i = 1; i < seq.size(); ++i) {
      if (seq[i]->tmp <= seq[i - 1]->tmp) {
        violation("total-order",
                  "g" + std::to_string(key.first) + ".r" +
                      std::to_string(key.second) + " delivered " +
                      uid_str(seq[i]->uid) + " (tmp " +
                      std::to_string(seq[i]->tmp) + ") after tmp " +
                      std::to_string(seq[i - 1]->tmp));
      }
    }
  }

  // Agreement: a delivered message reaches every never-crashed replica of
  // each group that delivered it.
  for (const auto& [uid, by_group] : delivered_by) {
    for (const auto& [g, ranks] : by_group) {
      for (int r = 0; r < sys.replicas_per_partition(); ++r) {
        if (ranks.contains(r)) continue;
        if (ever_crashed.contains({g, r})) continue;
        violation("agreement", "g" + std::to_string(g) + ".r" +
                                   std::to_string(r) + " never delivered " +
                                   uid_str(uid));
      }
    }
  }

  // Validity, per logical command: every submit reaches a terminal
  // outcome (a hung client is a violation), and a successful command is
  // delivered in each destination group under at least one attempt uid.
  // Timed-out / shed commands carry no delivery obligation.
  struct CmdState {
    amcast::DstMask dst = 0;
    std::vector<amcast::MsgUid> uids;
  };
  std::map<CommandKey, CmdState> commands;
  for (const auto& inv : history.invokes()) {
    auto& cmd = commands[{inv.client, inv.seq}];
    cmd.dst |= inv.dst;
    cmd.uids.push_back(inv.uid);
  }
  for (const auto& [key, cmd] : commands) {
    const auto outcome = history.outcomes().find(key);
    if (outcome == history.outcomes().end()) {
      violation("validity",
                cmd_str(key.first, key.second) + " never terminated");
      continue;
    }
    if (outcome->second.status != core::SubmitStatus::kOk) continue;
    for (core::GroupId g = 0; g < sys.partitions(); ++g) {
      if (!amcast::dst_contains(cmd.dst, g)) continue;
      const bool delivered = std::any_of(
          cmd.uids.begin(), cmd.uids.end(), [&](amcast::MsgUid uid) {
            return delivered_groups[uid].contains(g);
          });
      if (!delivered) {
        violation("validity", cmd_str(key.first, key.second) +
                                  " succeeded but no attempt was delivered "
                                  "in g" +
                                  std::to_string(g));
      }
    }
  }

  return out;
}

std::vector<Violation> check_exactly_once(
    const std::vector<ExecEvent>& execs) {
  std::vector<Violation> out;
  std::map<std::pair<std::int32_t, int>, std::set<CommandKey>> seen;
  for (const auto& e : execs) {
    if (e.seq == 0) continue;  // sessionless command: dedup not promised
    if (!seen[{e.group, e.rank}].insert({e.client, e.seq}).second) {
      out.push_back(Violation{
          "exactly-once",
          "g" + std::to_string(e.group) + ".r" + std::to_string(e.rank) +
              " executed " + cmd_str(e.client, e.seq) + " more than once"});
    }
  }
  return out;
}

void check_exactly_once(const HistoryRecorder& history,
                        std::vector<Violation>& violations) {
  auto v = check_exactly_once(history.execs());
  violations.insert(violations.end(), v.begin(), v.end());
}

std::vector<sim::Nanos> command_latencies(const HistoryRecorder& history) {
  std::map<CommandKey, sim::Nanos> first_attempt;
  for (const auto& inv : history.invokes()) {
    auto [it, inserted] = first_attempt.try_emplace({inv.client, inv.seq},
                                                    inv.at);
    if (!inserted && inv.at < it->second) it->second = inv.at;
  }
  std::vector<sim::Nanos> out;
  out.reserve(history.outcomes().size());
  for (const auto& [key, outcome] : history.outcomes()) {
    if (outcome.status != core::SubmitStatus::kOk) continue;
    const auto it = first_attempt.find(key);
    if (it == first_attempt.end()) continue;
    out.push_back(outcome.at - it->second);
  }
  return out;
}

sim::Nanos latency_percentile(std::vector<sim::Nanos> sample, double p) {
  if (sample.empty()) return 0;
  std::sort(sample.begin(), sample.end());
  const auto n = static_cast<double>(sample.size());
  auto rank = static_cast<std::size_t>(p / 100.0 * n);  // nearest-rank, 1-based
  if (rank > 0) --rank;
  if (rank >= sample.size()) rank = sample.size() - 1;
  return sample[rank];
}

void check_tail_latency(const HistoryRecorder& history, sim::Nanos p99_bound,
                        std::vector<Violation>& violations) {
  const auto sample = command_latencies(history);
  if (sample.empty()) {
    violations.push_back(Violation{
        "tail-latency", "no command completed successfully (goodput collapse)"});
    return;
  }
  const sim::Nanos p99 = latency_percentile(sample, 99.0);
  if (p99 > p99_bound) {
    violations.push_back(Violation{
        "tail-latency", "p99 latency " + std::to_string(p99) + "ns exceeds " +
                            std::to_string(p99_bound) + "ns over " +
                            std::to_string(sample.size()) + " commands"});
  }
}

std::uint64_t store_digest(core::Replica& replica) {
  auto& store = replica.store();
  std::vector<core::Oid> oids;
  oids.reserve(store.object_count());
  store.for_each_oid([&oids](core::Oid oid) { oids.push_back(oid); });
  std::sort(oids.begin(), oids.end());

  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](const std::byte* data, std::size_t len) {
    for (std::size_t i = 0; i < len; ++i) {
      h ^= static_cast<std::uint64_t>(data[i]);
      h *= 1099511628211ull;
    }
  };
  for (const core::Oid oid : oids) {
    mix(reinterpret_cast<const std::byte*>(&oid), sizeof(oid));
    // Digest the *current* version only: a restarted replica received it
    // via install_version (which fills both slots), while survivors still
    // hold a stale older version in the second slot.
    const auto [tmp, value] = store.get(oid);
    mix(reinterpret_cast<const std::byte*>(&tmp), sizeof(tmp));
    mix(value.data(), value.size());
  }
  return h;
}

std::uint64_t session_digest(core::Replica& replica) {
  std::uint64_t h = 1469598103934665603ull;  // FNV-1a offset basis
  auto mix = [&h](const void* data, std::size_t len) {
    const auto* p = static_cast<const std::byte*>(data);
    for (std::size_t i = 0; i < len; ++i) {
      h ^= static_cast<std::uint64_t>(p[i]);
      h *= 1099511628211ull;
    }
  };
  for (const auto& [client, s] : replica.sessions()) {
    mix(&client, sizeof(client));
    const std::uint64_t watermark = s.watermark();
    mix(&watermark, sizeof(watermark));
    mix(&s.cached_seq, sizeof(s.cached_seq));
    mix(&s.last_tmp, sizeof(s.last_tmp));
    mix(&s.cached_reply.status, sizeof(s.cached_reply.status));
    s.seqs.for_each_above([&mix](std::uint64_t e) { mix(&e, sizeof(e)); });
  }
  return h;
}

void check_session_convergence(core::System& sys,
                               std::vector<Violation>& violations) {
  for (core::GroupId g = 0; g < sys.partitions(); ++g) {
    std::uint64_t want = 0;
    int want_rank = -1;
    for (int r = 0; r < sys.replicas_per_partition(); ++r) {
      core::Replica& rep = sys.replica(g, r);
      if (!rep.node().alive()) continue;
      const std::uint64_t d = session_digest(rep);
      if (want_rank < 0) {
        want = d;
        want_rank = r;
        continue;
      }
      if (d != want) {
        violations.push_back(Violation{
            "session-convergence",
            "g" + std::to_string(g) + ".r" + std::to_string(r) +
                " session digest differs from r" + std::to_string(want_rank)});
      }
    }
  }
}

void check_store_convergence(core::System& sys,
                             std::vector<Violation>& violations) {
  for (core::GroupId g = 0; g < sys.partitions(); ++g) {
    std::uint64_t want = 0;
    int want_rank = -1;
    for (int r = 0; r < sys.replicas_per_partition(); ++r) {
      core::Replica& rep = sys.replica(g, r);
      if (!rep.node().alive()) continue;
      const std::uint64_t d = store_digest(rep);
      if (want_rank < 0) {
        want = d;
        want_rank = r;
        continue;
      }
      if (d != want) {
        violations.push_back(Violation{
            "convergence",
            "g" + std::to_string(g) + ".r" + std::to_string(r) +
                " store digest differs from r" + std::to_string(want_rank)});
      }
    }
  }
}

}  // namespace heron::faultlab
