#include "transform/minic_guest.h"

#include <stdexcept>

#include "transform/analysis.h"
#include "transform/parser.h"

namespace nv::transform {

MiniCGuest::MiniCGuest(std::string source, Options options)
    : source_(std::move(source)), options_(std::move(options)) {}

void MiniCGuest::run(guest::GuestContext& ctx) {
  // "Build" this variant: parse + analyze + transform with R_i. The mask is
  // recovered from the variant's coder: for XOR-family coders R_i(0) IS the
  // mask (identity -> 0).
  Program program = parse(source_);
  const AnalysisResult analysis = analyze(program);
  if (!analysis.ok()) {
    throw std::runtime_error("mini-C analysis failed: " + analysis.errors.front());
  }

  TransformStats stats;
  if (options_.apply_transformation) {
    TransformOptions topts;
    topts.mask = ctx.uid_const(0);
    topts.detection = options_.detection;
    program = transform_uid(program, topts, &stats);
  }

  InterpOptions iopts;
  iopts.entry = options_.entry;
  if (!options_.log_path.empty()) {
    auto fd = ctx.open(options_.log_path,
                       os::OpenFlags::kWrite | os::OpenFlags::kCreate | os::OpenFlags::kAppend,
                       0640);
    if (fd) iopts.log_fd = *fd;
  }

  InterpResult result = interpret(program, ctx, iopts);

  if (iopts.log_fd >= 0) (void)ctx.close(iopts.log_fd);
  {
    const util::MutexLock lock(mutex_);
    stats_[ctx.variant()] = stats;
    results_[ctx.variant()] = result;
  }
  long long code = 0;
  if (const auto* i = std::get_if<long long>(&result.ret)) code = *i;
  if (code != 0) ctx.exit(static_cast<int>(code));
}

InterpResult MiniCGuest::result_for(unsigned variant) const {
  const util::MutexLock lock(mutex_);
  const auto it = results_.find(variant);
  return it == results_.end() ? InterpResult{} : it->second;
}

TransformStats MiniCGuest::stats_for(unsigned variant) const {
  const util::MutexLock lock(mutex_);
  const auto it = stats_.find(variant);
  return it == stats_.end() ? TransformStats{} : it->second;
}

}  // namespace nv::transform
