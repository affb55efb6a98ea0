#include "faultlab/linear.hpp"

#include <algorithm>
#include <set>
#include <sstream>

namespace heron::faultlab {

void LinearChecker::note_write(core::Oid key, std::uint32_t client,
                               std::uint64_t seq, sim::Nanos invoked_at,
                               sim::Nanos completed_at,
                               core::SubmitStatus status) {
  writes_[key].push_back(WriteOp{client, seq, invoked_at, completed_at,
                                 status});
}

void LinearChecker::note_fast_write(core::Oid key, core::Tmp tmp,
                                    core::Tmp base, sim::Nanos invoked_at,
                                    sim::Nanos completed_at) {
  fast_writes_[key].push_back(FastWriteOp{tmp, base, invoked_at,
                                          completed_at});
}

void LinearChecker::note_read(core::Oid key, core::Tmp tmp,
                              sim::Nanos invoked_at, sim::Nanos completed_at,
                              bool fast) {
  reads_[key].push_back(ReadOp{tmp, invoked_at, completed_at, fast});
}

std::size_t LinearChecker::read_count() const {
  std::size_t n = 0;
  for (const auto& [key, ops] : reads_) n += ops.size();
  return n;
}

std::size_t LinearChecker::write_count() const {
  std::size_t n = 0;
  for (const auto& [key, ops] : writes_) n += ops.size();
  for (const auto& [key, ops] : fast_writes_) n += ops.size();
  return n;
}

std::vector<Violation> LinearChecker::check(
    const HistoryRecorder& history) const {
  std::vector<Violation> out;

  // (client, seq) -> executed version timestamp. Session dedup plus total
  // order guarantee every replica executes the same attempt of a command,
  // so the first recorded tmp is THE tmp (exactly-once is checked by its
  // own oracle).
  std::map<CommandKey, core::Tmp> tmp_of;
  for (const auto& e : history.execs()) {
    tmp_of.try_emplace({e.client, e.seq}, e.tmp);
  }

  auto describe = [](core::Oid key, const ReadOp& r) {
    std::ostringstream os;
    os << (r.fast ? "fast" : "ordered") << " read of oid " << key
       << " at [" << r.invoked_at << ", " << r.completed_at << "] returned tmp "
       << r.tmp;
    return os.str();
  };

  // Version order key (see the header comment): plain tmp t -> [t]; a
  // fast write chained on base b -> ordkey(b) ++ [completed_at], compared
  // lexicographically.
  using OrdKey = std::vector<std::uint64_t>;

  for (const auto& [key, key_reads] : reads_) {
    // Fast writes by version tmp. The same numeric fast tmp CAN recur on
    // one key: the chain counter restarts whenever an ordered write wipes
    // the slot back to a plain version, so a client's first fast write
    // after each wipe reuses the same tmp. `resolve` disambiguates by
    // picking the latest instance invoked before the observation point.
    std::map<core::Tmp, std::vector<const FastWriteOp*>> fast_of;
    std::size_t fast_count = 0;
    if (const auto it = fast_writes_.find(key); it != fast_writes_.end()) {
      fast_count = it->second.size();
      for (const FastWriteOp& f : it->second) fast_of[f.tmp].push_back(&f);
      for (auto& [tmp, ops] : fast_of) {
        std::sort(ops.begin(), ops.end(),
                  [](const FastWriteOp* a, const FastWriteOp* b) {
                    return a->invoked_at < b->invoked_at;
                  });
      }
    }
    auto resolve = [&fast_of](core::Tmp tmp,
                              sim::Nanos before) -> const FastWriteOp* {
      const auto it = fast_of.find(tmp);
      if (it == fast_of.end()) return nullptr;
      const FastWriteOp* best = nullptr;
      for (const FastWriteOp* f : it->second) {
        if (f->invoked_at < before) best = f;
      }
      return best != nullptr ? best : it->second.front();
    };
    // `before` anchors disambiguation: the time the version was observed
    // (a read's completion, or the dependent fast write's invocation).
    // A fast tmp with no note resolves to itself — membership flags it.
    // An acyclic chain has at most one link per fast write of the key, so
    // that count bounds the walk (and stops a cycle through the
    // `front()` fallback).
    auto ordkey = [&resolve, fast_count](core::Tmp tmp, sim::Nanos before) {
      OrdKey k;
      core::Tmp t = tmp;
      sim::Nanos at = before;
      for (std::size_t links = 0; core::is_fast_tmp(t) && links < fast_count;
           ++links) {
        const FastWriteOp* f = resolve(t, at);
        if (f == nullptr) break;
        k.push_back(static_cast<std::uint64_t>(f->completed_at));
        t = f->base;
        at = f->invoked_at;
      }
      k.push_back(t);
      std::reverse(k.begin(), k.end());
      return k;
    };

    // Resolve this key's writes once: every write with a recorded
    // execution (membership set), and the kOk-completed subset (staleness
    // lower bound). Fast commits join both — the client only reports
    // them on success, and their version is known directly.
    struct ResolvedWrite {
      core::Tmp tmp = 0;  // for violation messages
      OrdKey key;
      sim::Nanos invoked_at = 0;
      sim::Nanos completed_at = 0;
      bool completed_ok = false;
    };
    std::vector<ResolvedWrite> writes;
    if (const auto it = writes_.find(key); it != writes_.end()) {
      for (const WriteOp& w : it->second) {
        const auto t = tmp_of.find({w.client, w.seq});
        if (t == tmp_of.end()) continue;  // never executed anywhere
        writes.push_back(ResolvedWrite{
            t->second, OrdKey{t->second}, w.invoked_at, w.completed_at,
            w.status == core::SubmitStatus::kOk});
      }
    }
    if (const auto it = fast_writes_.find(key); it != fast_writes_.end()) {
      for (const FastWriteOp& f : it->second) {
        OrdKey k = ordkey(f.base, f.invoked_at);
        k.push_back(static_cast<std::uint64_t>(f.completed_at));
        writes.push_back(ResolvedWrite{f.tmp, std::move(k), f.invoked_at,
                                       f.completed_at, true});
      }
    }

    struct ResolvedRead {
      const ReadOp* op = nullptr;
      OrdKey key;
    };
    std::vector<ResolvedRead> resolved_reads;
    resolved_reads.reserve(key_reads.size());
    for (const ReadOp& r : key_reads) {
      resolved_reads.push_back({&r, ordkey(r.tmp, r.completed_at)});
    }
    std::vector<const ResolvedRead*> by_invoked;
    by_invoked.reserve(resolved_reads.size());
    for (const ResolvedRead& r : resolved_reads) by_invoked.push_back(&r);
    std::sort(by_invoked.begin(), by_invoked.end(),
              [](const ResolvedRead* a, const ResolvedRead* b) {
                return a->op->invoked_at < b->op->invoked_at;
              });
    auto by_completed = by_invoked;
    std::sort(by_completed.begin(), by_completed.end(),
              [](const ResolvedRead* a, const ResolvedRead* b) {
                return a->op->completed_at < b->op->completed_at;
              });

    // Staleness + read order: sweep reads in invocation order, folding in
    // writes/reads that completed strictly before each invocation.
    std::vector<const ResolvedWrite*> w_by_completed;
    for (const ResolvedWrite& w : writes) {
      if (w.completed_ok) w_by_completed.push_back(&w);
    }
    std::sort(w_by_completed.begin(), w_by_completed.end(),
              [](const ResolvedWrite* a, const ResolvedWrite* b) {
                return a->completed_at < b->completed_at;
              });
    OrdKey write_floor;  // empty = below every version
    OrdKey read_floor;
    core::Tmp write_floor_tmp = 0;
    core::Tmp read_floor_tmp = 0;
    std::size_t wi = 0, rj = 0;
    for (const ResolvedRead* r : by_invoked) {
      while (wi < w_by_completed.size() &&
             w_by_completed[wi]->completed_at < r->op->invoked_at) {
        if (write_floor < w_by_completed[wi]->key) {
          write_floor = w_by_completed[wi]->key;
          write_floor_tmp = w_by_completed[wi]->tmp;
        }
        ++wi;
      }
      while (rj < by_completed.size() &&
             by_completed[rj]->op->completed_at < r->op->invoked_at) {
        if (read_floor < by_completed[rj]->key) {
          read_floor = by_completed[rj]->key;
          read_floor_tmp = by_completed[rj]->op->tmp;
        }
        ++rj;
      }
      if (r->key < write_floor) {
        out.push_back(Violation{
            "linearizability",
            describe(key, *r->op) + " but a write with tmp " +
                std::to_string(write_floor_tmp) + " completed before it"});
      }
      if (r->key < read_floor) {
        out.push_back(Violation{
            "linearizability",
            describe(key, *r->op) + " but an earlier read already returned tmp " +
                std::to_string(read_floor_tmp) + " (read inversion)"});
      }
    }

    // Membership: sweep reads in completion order, folding in writes
    // invoked strictly before each completion.
    std::vector<const ResolvedWrite*> w_by_invoked;
    for (const ResolvedWrite& w : writes) w_by_invoked.push_back(&w);
    std::sort(w_by_invoked.begin(), w_by_invoked.end(),
              [](const ResolvedWrite* a, const ResolvedWrite* b) {
                return a->invoked_at < b->invoked_at;
              });
    std::set<OrdKey> known{OrdKey{0}};  // [0] = the bootstrap value
    std::size_t wk = 0;
    for (const ResolvedRead* r : by_completed) {
      while (wk < w_by_invoked.size() &&
             w_by_invoked[wk]->invoked_at < r->op->completed_at) {
        known.insert(w_by_invoked[wk]->key);
        ++wk;
      }
      if (!known.contains(r->key)) {
        out.push_back(Violation{
            "linearizability",
            describe(key, *r->op) +
                " which is no write invoked before the read completed"});
      }
    }
  }
  return out;
}

}  // namespace heron::faultlab
