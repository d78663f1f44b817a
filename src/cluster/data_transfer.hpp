// Inter-function data-passing model. Communication between functions placed
// on the same invoker goes through the local file system; otherwise the
// output travels through remote storage (Section 3.4). The entry stage
// always fetches its input from the user-facing ingress (remote).
#pragma once

#include "common/types.hpp"

namespace esg::cluster {

struct DataTransferModel {
  double local_mb_per_ms = 2.0;    ///< ~2 GB/s effective local FS bandwidth
  double remote_mb_per_ms = 0.5;   ///< ~500 MB/s remote store over 10 GbE+
  TimeMs local_base_ms = 0.2;      ///< per-transfer local overhead
  TimeMs remote_base_ms = 3.0;     ///< per-transfer remote RTT + store latency

  /// Time to move `megabytes` of data, locally or remotely.
  [[nodiscard]] TimeMs transfer_ms(double megabytes, bool local) const {
    if (megabytes < 0.0) megabytes = 0.0;
    return local ? local_base_ms + megabytes / local_mb_per_ms
                 : remote_base_ms + megabytes / remote_mb_per_ms;
  }
};

/// The platform's data-passing model: the controller stages task inputs
/// with it, and ESG reserves budget for that staging with the same model.
inline constexpr DataTransferModel kDataTransfer{};

}  // namespace esg::cluster
