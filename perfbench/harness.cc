#include "perfbench/harness.h"

namespace perfbench {

void Phase::Complete(int64_t issue_ns, Outcome outcome) {
  switch (outcome) {
    case Outcome::kVerified:
      ++verified_;
      if (samples_ != nullptr && issue_ns >= exclude_before_ns_) {
        samples_->Add(static_cast<double>(NowNs() - issue_ns) / 1e6);
      }
      break;
    case Outcome::kMismatch:
      ++mismatches_;
      break;
    case Outcome::kError:
      ++errors_;
      break;
  }
}

}  // namespace perfbench
