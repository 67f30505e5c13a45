#include "nn/serialize.h"

#include <cstdint>
#include <cstring>
#include <istream>
#include <ostream>

namespace drcell::nn {

namespace {

constexpr char kMagic[4] = {'D', 'R', 'C', 'W'};
constexpr std::uint32_t kVersion = 1;

template <typename T>
void write_pod(std::ostream& out, T v) {
  out.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T read_pod(std::istream& in) {
  T v{};
  in.read(reinterpret_cast<char*>(&v), sizeof(T));
  if (!in) throw SerializationError("truncated weight stream");
  return v;
}

}  // namespace

void save_matrices(std::ostream& out, const std::vector<const Matrix*>& ms) {
  out.write(kMagic, sizeof(kMagic));
  write_pod<std::uint32_t>(out, kVersion);
  write_pod<std::uint64_t>(out, ms.size());
  for (const auto* m : ms) {
    DRCELL_CHECK(m != nullptr);
    write_pod<std::uint64_t>(out, m->rows());
    write_pod<std::uint64_t>(out, m->cols());
    const auto data = m->data();
    out.write(reinterpret_cast<const char*>(data.data()),
              static_cast<std::streamsize>(data.size() * sizeof(double)));
  }
  if (!out) throw SerializationError("failed to write weight stream");
}

std::vector<Matrix> load_matrices(std::istream& in) {
  char magic[4];
  in.read(magic, sizeof(magic));
  if (!in || std::memcmp(magic, kMagic, sizeof(kMagic)) != 0)
    throw SerializationError("bad magic: not a DR-Cell weight stream");
  const auto version = read_pod<std::uint32_t>(in);
  if (version != kVersion)
    throw SerializationError("unsupported weight stream version " +
                             std::to_string(version));
  const auto count = read_pod<std::uint64_t>(in);
  // Defensive bound: no realistic network here exceeds a few hundred
  // matrices; a huge count signals stream corruption.
  if (count > 1'000'000)
    throw SerializationError("implausible matrix count in weight stream");
  std::vector<Matrix> ms;
  ms.reserve(count);
  for (std::uint64_t k = 0; k < count; ++k) {
    const auto rows = read_pod<std::uint64_t>(in);
    const auto cols = read_pod<std::uint64_t>(in);
    if (rows > 1'000'000 || cols > 1'000'000)
      throw SerializationError("implausible matrix shape in weight stream");
    Matrix m(rows, cols);
    auto data = m.data();
    in.read(reinterpret_cast<char*>(data.data()),
            static_cast<std::streamsize>(data.size() * sizeof(double)));
    if (!in) throw SerializationError("truncated weight stream");
    ms.push_back(std::move(m));
  }
  return ms;
}

void save_parameters(std::ostream& out,
                     const std::vector<Parameter*>& params) {
  std::vector<const Matrix*> ms;
  ms.reserve(params.size());
  for (const auto* p : params) {
    DRCELL_CHECK(p != nullptr);
    ms.push_back(&p->value());
  }
  save_matrices(out, ms);
}

void load_parameters(std::istream& in, const std::vector<Parameter*>& params) {
  const std::vector<Matrix> ms = load_matrices(in);
  if (ms.size() != params.size())
    throw SerializationError(
        "weight stream has " + std::to_string(ms.size()) +
        " matrices, network expects " + std::to_string(params.size()));
  for (std::size_t i = 0; i < ms.size(); ++i) {
    if (ms[i].rows() != params[i]->value().rows() ||
        ms[i].cols() != params[i]->value().cols())
      throw SerializationError("matrix " + std::to_string(i) +
                               " shape mismatch while loading weights");
  }
  for (std::size_t i = 0; i < ms.size(); ++i)
    params[i]->mutable_value() = ms[i];
}

void copy_parameters(const std::vector<Parameter*>& from,
                     const std::vector<Parameter*>& to) {
  DRCELL_CHECK_MSG(from.size() == to.size(),
                   "parameter count mismatch in copy_parameters");
  for (std::size_t i = 0; i < from.size(); ++i) {
    DRCELL_CHECK(from[i]->value().rows() == to[i]->value().rows() &&
                 from[i]->value().cols() == to[i]->value().cols());
    to[i]->mutable_value() = from[i]->value();
  }
}

}  // namespace drcell::nn
