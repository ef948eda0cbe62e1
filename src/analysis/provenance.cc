#include "src/analysis/provenance.h"

#include <algorithm>
#include <cstdio>
#include <functional>
#include <sstream>
#include <utility>

namespace tempo {

namespace {

void SortTree(ProvenanceNode* node) {
  std::sort(node->children.begin(), node->children.end(),
            [](const ProvenanceNode& a, const ProvenanceNode& b) {
              if (a.subtree_ops != b.subtree_ops) {
                return a.subtree_ops > b.subtree_ops;
              }
              return a.name < b.name;
            });
  for (ProvenanceNode& child : node->children) {
    SortTree(&child);
  }
}

// Assembles the forest from per-call-site (ops, sets) tallies.
std::vector<ProvenanceNode> ForestFromDirect(
    const std::map<CallsiteId, std::pair<uint64_t, uint64_t>>& direct,
    const CallsiteRegistry& callsites) {
  // Children lists over the whole registry (call-sites without records can
  // still be interior provenance nodes).
  std::map<CallsiteId, std::vector<CallsiteId>> children;
  std::vector<CallsiteId> roots;
  for (CallsiteId id = 1; id < callsites.size(); ++id) {
    const CallsiteId parent = callsites.Parent(id);
    if (parent == kUnknownCallsite) {
      roots.push_back(id);
    } else {
      children[parent].push_back(id);
    }
  }

  std::function<ProvenanceNode(CallsiteId)> build = [&](CallsiteId id) {
    ProvenanceNode node;
    node.callsite = id;
    node.name = callsites.Name(id);
    const auto it = direct.find(id);
    if (it != direct.end()) {
      node.direct_ops = it->second.first;
      node.direct_sets = it->second.second;
    }
    node.subtree_ops = node.direct_ops;
    node.subtree_sets = node.direct_sets;
    const auto kids = children.find(id);
    if (kids != children.end()) {
      for (CallsiteId child : kids->second) {
        node.children.push_back(build(child));
        node.subtree_ops += node.children.back().subtree_ops;
        node.subtree_sets += node.children.back().subtree_sets;
      }
    }
    return node;
  };

  std::vector<ProvenanceNode> forest;
  for (CallsiteId root : roots) {
    ProvenanceNode node = build(root);
    if (node.subtree_ops > 0) {
      SortTree(&node);
      forest.push_back(std::move(node));
    }
  }
  std::sort(forest.begin(), forest.end(),
            [](const ProvenanceNode& a, const ProvenanceNode& b) {
              if (a.subtree_ops != b.subtree_ops) {
                return a.subtree_ops > b.subtree_ops;
              }
              return a.name < b.name;
            });
  return forest;
}

}  // namespace

void ProvenancePass::Accumulate(std::span<const TraceRecord> records) {
  for (const TraceRecord& r : records) {
    auto& [ops, sets] = direct_[r.callsite];
    ++ops;
    if (r.op == TimerOp::kSet || r.op == TimerOp::kBlock) {
      ++sets;
    }
  }
}

void ProvenancePass::Merge(AnalysisPass&& other) {
  auto& later = dynamic_cast<ProvenancePass&>(other);
  for (const auto& [id, tally] : later.direct_) {
    auto& [ops, sets] = direct_[id];
    ops += tally.first;
    sets += tally.second;
  }
}

std::vector<ProvenanceNode> ProvenancePass::Result() const {
  return ForestFromDirect(direct_, *callsites_);
}

std::unique_ptr<AnalysisPass> ProvenancePass::Fork() const {
  return std::make_unique<ProvenancePass>(callsites_);
}

void ProvenancePass::Render(RenderSink& sink) {
  sink.Section("provenance", "provenance:\n" + RenderProvenance(Result()) + "\n");
}

void BlamePass::Accumulate(std::span<const TraceRecord> records) {
  episodes_.Accumulate(records);
}

void BlamePass::Merge(AnalysisPass&& other) {
  episodes_.Merge(std::move(dynamic_cast<BlamePass&>(other).episodes_));
}

std::vector<BlameEntry> BlamePass::Result() const {
  std::map<CallsiteId, BlameEntry> by_site;
  episodes_.ForEachGroup([&](const std::vector<Episode>& group) {
    for (const Episode& e : group) {
      const SimTime episode_end = e.end == EpisodeEnd::kOpen ? end_ : e.end_time;
      const SimTime overlap_start = std::max(e.set_time, start_);
      const SimTime overlap_end = std::min(episode_end, end_);
      if (overlap_end <= overlap_start) {
        continue;
      }
      BlameEntry& entry = by_site[e.callsite];
      entry.callsite = e.callsite;
      ++entry.episodes;
      const SimDuration held = overlap_end - overlap_start;
      entry.held += held;
      entry.longest = std::max(entry.longest, held);
    }
  });
  std::vector<BlameEntry> out;
  out.reserve(by_site.size());
  for (auto& [id, entry] : by_site) {
    entry.name = callsites_->Name(id);
    out.push_back(std::move(entry));
  }
  std::sort(out.begin(), out.end(), [](const BlameEntry& a, const BlameEntry& b) {
    if (a.held != b.held) {
      return a.held > b.held;
    }
    return a.name < b.name;
  });
  return out;
}

std::unique_ptr<AnalysisPass> BlamePass::Fork() const {
  return std::make_unique<BlamePass>(callsites_, start_, end_);
}

void BlamePass::Render(RenderSink& sink) {
  sink.Section("blame", RenderBlame(Result(), start_, end_));
}

std::string RenderProvenance(const std::vector<ProvenanceNode>& forest) {
  std::ostringstream out;
  std::function<void(const ProvenanceNode&, int)> emit = [&](const ProvenanceNode& node,
                                                             int depth) {
    char line[256];
    std::snprintf(line, sizeof(line), "%*s%-*s %10llu ops %10llu sets", 2 * depth, "",
                  40 - 2 * depth, node.name.c_str(),
                  static_cast<unsigned long long>(node.subtree_ops),
                  static_cast<unsigned long long>(node.subtree_sets));
    out << line << "\n";
    for (const ProvenanceNode& child : node.children) {
      emit(child, depth + 1);
    }
  };
  for (const ProvenanceNode& root : forest) {
    emit(root, 0);
  }
  return out.str();
}

std::string RenderBlame(const std::vector<BlameEntry>& entries, SimTime start, SimTime end) {
  std::ostringstream out;
  out << "pending timers in [" << ToSeconds(start) << "s, " << ToSeconds(end) << "s):\n";
  for (const BlameEntry& entry : entries) {
    char line[256];
    std::snprintf(line, sizeof(line), "  %-36s %8llu eps  held %10s  longest %10s",
                  entry.name.c_str(), static_cast<unsigned long long>(entry.episodes),
                  FormatDuration(entry.held).c_str(),
                  FormatDuration(entry.longest).c_str());
    out << line << "\n";
  }
  return out.str();
}

}  // namespace tempo
