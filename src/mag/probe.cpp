#include "mag/probe.h"

#include <stdexcept>

namespace swsim::mag {

RegionProbe::RegionProbe(std::string name, const swsim::math::Mask& region,
                         double sample_dt, std::size_t max_samples)
    : name_(std::move(name)),
      cells_(region),
      sample_dt_(sample_dt),
      base_sample_dt_(sample_dt),
      max_samples_(max_samples) {
  if (!(sample_dt > 0.0)) {
    throw std::invalid_argument("RegionProbe: sample_dt must be > 0");
  }
  if (region.count() == 0) {
    throw std::invalid_argument("RegionProbe '" + name_ + "': empty region");
  }
  if (max_samples_ != 0 && (max_samples_ < 8 || max_samples_ % 2 != 0)) {
    throw std::invalid_argument("RegionProbe '" + name_ +
                                "': max_samples must be 0 or an even "
                                "count >= 8");
  }
}

void RegionProbe::arm_demodulator(double f0, std::size_t window_samples) {
  demod_.emplace(f0, window_samples);
}

void RegionProbe::decimate() {
  // Keep every other sample. The survivors stay uniformly spaced at twice
  // the old interval, and — because the stored count is even — the next
  // due sample already lies on the coarsened grid.
  const std::size_t half = t_.size() / 2;
  for (std::size_t i = 0; i < half; ++i) {
    t_[i] = t_[2 * i];
    mx_[i] = mx_[2 * i];
    my_[i] = my_[2 * i];
    mz_[i] = mz_[2 * i];
  }
  t_.resize(half);
  mx_.resize(half);
  my_.resize(half);
  mz_.resize(half);
  sample_dt_ *= 2.0;
}

bool RegionProbe::maybe_record(const System& sys, const VectorField& m,
                               double t) {
  if (!due(t)) return false;
  if (!(cells_.region().grid() == sys.grid())) {
    throw std::invalid_argument("RegionProbe '" + name_ +
                                "': grid mismatch with system");
  }
  const std::vector<std::uint32_t>& cells = cells_.of(sys);
  if (cells.empty()) {
    throw std::runtime_error("RegionProbe '" + name_ +
                             "': region contains no magnetic cells");
  }
  Vec3 acc{};
  for (const std::uint32_t i : cells) acc += m[i];
  acc /= static_cast<double>(cells.size());
  if (max_samples_ != 0 && t_.size() == max_samples_) decimate();
  t_.push_back(t);
  mx_.push_back(acc.x);
  my_.push_back(acc.y);
  mz_.push_back(acc.z);
  next_sample_ += sample_dt_;
  // The demodulator consumes the live stream at the recording cadence;
  // decimation only compacts the *stored* series.
  return demod_ ? demod_->add_sample(t, acc.x) : false;
}

RegionProbe::Checkpoint RegionProbe::checkpoint() const {
  Checkpoint cp;
  cp.samples = t_.size();
  cp.next_sample = next_sample_;
  cp.sample_dt = sample_dt_;
  if (max_samples_ != 0) {
    cp.full = true;
    cp.t = t_;
    cp.mx = mx_;
    cp.my = my_;
    cp.mz = mz_;
  }
  if (demod_) cp.demod = demod_->checkpoint();
  return cp;
}

void RegionProbe::restore(const Checkpoint& cp) {
  if (cp.full) {
    t_ = cp.t;
    mx_ = cp.mx;
    my_ = cp.my;
    mz_ = cp.mz;
  } else {
    if (cp.samples > t_.size()) {
      throw std::invalid_argument("RegionProbe '" + name_ +
                                  "': checkpoint is ahead of the record");
    }
    t_.resize(cp.samples);
    mx_.resize(cp.samples);
    my_.resize(cp.samples);
    mz_.resize(cp.samples);
  }
  next_sample_ = cp.next_sample;
  sample_dt_ = cp.sample_dt > 0.0 ? cp.sample_dt : sample_dt_;
  if (demod_) demod_->restore(cp.demod);
}

void RegionProbe::clear() {
  t_.clear();
  mx_.clear();
  my_.clear();
  mz_.clear();
  next_sample_ = 0.0;
  sample_dt_ = base_sample_dt_;
  if (demod_) demod_->clear();
}

}  // namespace swsim::mag
