#include "src/trace/callsite.h"

#include <cassert>

namespace tempo {

CallsiteRegistry::CallsiteRegistry() {
  // Slot 0: the unknown call-site / empty stack.
  names_.push_back("?");
  parents_.push_back(kUnknownCallsite);
  chain_stacks_.push_back(kEmptyStack);
  by_name_.emplace("?", kUnknownCallsite);
  stacks_.emplace_back();
}

CallsiteId CallsiteRegistry::Intern(const std::string& name, CallsiteId parent) {
  auto it = by_name_.find(name);
  if (it != by_name_.end()) {
    return it->second;
  }
  const CallsiteId id = static_cast<CallsiteId>(names_.size());
  names_.push_back(name);
  parents_.push_back(parent);
  chain_stacks_.push_back(kEmptyStack);
  by_name_.emplace(name, id);
  return id;
}

const std::string& CallsiteRegistry::Name(CallsiteId id) const {
  assert(id < names_.size());
  return names_[id];
}

CallsiteId CallsiteRegistry::Parent(CallsiteId id) const {
  assert(id < parents_.size());
  return parents_[id];
}

std::vector<CallsiteId> CallsiteRegistry::Chain(CallsiteId id) const {
  std::vector<CallsiteId> chain;
  while (id != kUnknownCallsite && chain.size() < 64) {
    chain.push_back(id);
    id = Parent(id);
  }
  return chain;
}

StackId CallsiteRegistry::InternStack(const std::vector<CallsiteId>& frames) {
  if (frames.empty()) {
    return kEmptyStack;
  }
  std::string key;
  key.reserve(frames.size() * sizeof(CallsiteId));
  for (CallsiteId f : frames) {
    key.append(reinterpret_cast<const char*>(&f), sizeof(f));
  }
  auto it = stacks_by_key_.find(key);
  if (it != stacks_by_key_.end()) {
    return it->second;
  }
  const StackId id = static_cast<StackId>(stacks_.size());
  stacks_.push_back(frames);
  stacks_by_key_.emplace(std::move(key), id);
  return id;
}

StackId CallsiteRegistry::ChainStack(CallsiteId id) {
  assert(id < chain_stacks_.size());
  if (chain_stacks_[id] == kEmptyStack) {
    // The unknown call-site's chain is empty, so it is looked up each time;
    // that costs no allocation.
    chain_stacks_[id] = InternStack(Chain(id));
  }
  return chain_stacks_[id];
}

const std::vector<CallsiteId>& CallsiteRegistry::Stack(StackId id) const {
  assert(id < stacks_.size());
  return stacks_[id];
}

}  // namespace tempo
