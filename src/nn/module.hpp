// Minimal module system mirroring the paper's Fig. 5 `spnn` API:
// users compose Conv3d / BatchNorm / ReLU in Sequential containers with no
// coordinate-manager or indice-key bookkeeping.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "core/exec.hpp"
#include "core/sparse_tensor.hpp"

namespace ts::spnn {

class Conv3d;  // defined in layers.hpp

class Module {
 public:
  virtual ~Module() = default;
  virtual SparseTensor forward(const SparseTensor& x, ExecContext& ctx) = 0;
  /// Appends every Conv3d in this subtree (layer stats, tests).
  virtual void collect_convs(std::vector<Conv3d*>&) {}
};

using ModulePtr = std::unique_ptr<Module>;

/// Runs children in order.
class Sequential : public Module {
 public:
  Sequential() = default;
  explicit Sequential(std::vector<ModulePtr> mods) : mods_(std::move(mods)) {}

  template <typename M, typename... Args>
  M& emplace(Args&&... args) {
    auto m = std::make_unique<M>(std::forward<Args>(args)...);
    M& ref = *m;
    mods_.push_back(std::move(m));
    return ref;
  }
  void push(ModulePtr m) { mods_.push_back(std::move(m)); }
  std::size_t size() const { return mods_.size(); }

  SparseTensor forward(const SparseTensor& x, ExecContext& ctx) override {
    SparseTensor y = x;
    for (auto& m : mods_) y = m->forward(y, ctx);
    return y;
  }

  void collect_convs(std::vector<Conv3d*>& out) override {
    for (auto& m : mods_) m->collect_convs(out);
  }

 private:
  std::vector<ModulePtr> mods_;
};

}  // namespace ts::spnn
