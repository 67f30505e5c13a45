// Binary (de)serialisation of parameter sets. This is the substrate for the
// paper's transfer-learning mechanism (Sec. 4.4): the source task's DRQN
// weights are saved, then loaded to initialise the target task's network.
//
// Format: magic "DRCW", u32 version, u64 matrix count, then for each matrix
// u64 rows, u64 cols followed by rows*cols little-endian doubles.
#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "nn/layer.h"

namespace drcell::nn {

/// Serialisation failure (bad magic, truncated stream, shape mismatch).
class SerializationError : public std::runtime_error {
 public:
  explicit SerializationError(const std::string& what)
      : std::runtime_error(what) {}
};

void save_matrices(std::ostream& out, const std::vector<const Matrix*>& ms);
std::vector<Matrix> load_matrices(std::istream& in);

/// Saves the values of a parameter set.
void save_parameters(std::ostream& out, const std::vector<Parameter*>& params);

/// Loads values into an existing parameter set. Count and each matrix shape
/// must match exactly; throws SerializationError otherwise.
void load_parameters(std::istream& in, const std::vector<Parameter*>& params);

/// Copies values from one parameter set to another (shapes must match).
/// Used for DQN target-network synchronisation and for transfer learning
/// within one process.
void copy_parameters(const std::vector<Parameter*>& from,
                     const std::vector<Parameter*>& to);

}  // namespace drcell::nn
