#include "core/param.hh"

#include <algorithm>
#include <map>
#include <tuple>

namespace dhdl {

std::vector<int64_t>
divisorsOf(int64_t n)
{
    std::vector<int64_t> divs;
    if (n <= 0)
        return divs;
    // Factor by trial division up to the square root of what is left,
    // then multiply the divisors out: a smooth n such as 2^62 factors
    // in a few steps, a prime or a product of two large primes still
    // takes O(sqrt(n)).
    divs.push_back(1);
    for (int64_t p = 2, rest = n; rest > 1; p += p == 2 ? 1 : 2) {
        if (p > rest / p)
            p = rest;
        int k = 0;
        while (rest % p == 0) {
            rest /= p;
            ++k;
        }
        const size_t m = divs.size();
        int64_t pk = 1;
        for (int i = 0; i < k; ++i) {
            pk *= p;
            for (size_t j = 0; j < m; ++j)
                divs.push_back(divs[j] * pk);
        }
    }
    std::sort(divs.begin(), divs.end());
    return divs;
}

int64_t
largestDivisorLE(int64_t n, int64_t cap, int64_t multiple)
{
    int64_t best = 1, best_mult = 0;
    for (int64_t d : divisorsOf(n)) {
        if (d > cap)
            break;
        best = d;
        if (multiple > 0 && d % multiple == 0)
            best_mult = d;
    }
    return best_mult > 0 ? best_mult : best;
}

ParamId
ParamTable::add(ParamDef def)
{
    require(!def.name.empty(), "parameter must be named");
    require(def.minValue <= def.maxValue,
            "parameter '" + def.name + "' has empty range");
    defs_.push_back(std::move(def));
    return ParamId(defs_.size() - 1);
}

const ParamDef&
ParamTable::operator[](ParamId p) const
{
    invariant(p >= 0 && size_t(p) < defs_.size(),
              "parameter id out of range");
    return defs_[size_t(p)];
}

ParamBinding
ParamTable::defaults() const
{
    ParamBinding b;
    b.values.reserve(defs_.size());
    for (const auto& d : defs_)
        b.values.push_back(d.defaultValue);
    return b;
}

std::vector<int64_t>
ParamTable::legalValues(ParamId p) const
{
    const ParamDef& d = (*this)[p];
    std::vector<int64_t> vals;
    switch (d.kind) {
      case ParamKind::Toggle:
        vals = {0, 1};
        break;
      case ParamKind::Fixed:
        vals = {d.defaultValue};
        break;
      case ParamKind::TileSize:
      case ParamKind::ParFactor:
        if (d.divisorOf > 0) {
            for (int64_t v : divisorsOf(d.divisorOf)) {
                if (v >= d.minValue && v <= d.maxValue)
                    vals.push_back(v);
            }
        } else {
            // At most 4097 values from minValue, never past maxValue
            // and never past INT64_MAX.
            const int64_t hi =
                uint64_t(d.maxValue) - uint64_t(d.minValue) > 4096
                    ? d.minValue + 4096
                    : d.maxValue;
            for (int64_t v = d.minValue;; ++v) {
                vals.push_back(v);
                if (v == hi)
                    break;
            }
        }
        break;
    }
    if (vals.empty())
        vals.push_back(d.defaultValue);
    return vals;
}

std::vector<std::vector<int64_t>>
ParamTable::allLegalValues() const
{
    using Key = std::tuple<ParamKind, int64_t, int64_t, int64_t, int64_t>;
    std::map<Key, size_t> first;
    std::vector<std::vector<int64_t>> out;
    out.reserve(defs_.size());
    for (size_t i = 0; i < defs_.size(); ++i) {
        const ParamDef& d = defs_[i];
        const auto [at, fresh] = first.try_emplace(
            Key{d.kind, d.divisorOf, d.minValue, d.maxValue,
                d.defaultValue},
            i);
        out.push_back(fresh ? legalValues(ParamId(i)) : out[at->second]);
    }
    return out;
}

bool
ParamTable::isLegal(const ParamBinding& b) const
{
    if (b.values.size() != defs_.size())
        return false;
    const auto legal = allLegalValues();
    for (size_t i = 0; i < defs_.size(); ++i) {
        if (!std::binary_search(legal[i].begin(), legal[i].end(),
                                b.values[i]))
            return false;
    }
    return true;
}

} // namespace dhdl
