#include "core/param.hh"

#include <algorithm>

namespace dhdl {

namespace {

/** A tile or par parameter without a divisor_of lists its range from
 *  minValue up, at most this many steps past it. */
constexpr int64_t kMaxRangeSteps = 4096;

} // namespace

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
    const DefKey key{def.kind, def.divisorOf, def.minValue,
                     def.maxValue, def.defaultValue};
    auto it = byDef_.find(key);
    if (it == byDef_.end())
        it = byDef_.emplace(key, listLegal(def)).first;
    legal_.push_back(it->second);
    defs_.push_back(std::move(def));
    return ParamId(defs_.size() - 1);
}

size_t
ParamTable::checkedId(ParamId p) const
{
    invariant(p >= 0 && size_t(p) < defs_.size(),
              "parameter id out of range");
    return size_t(p);
}

const ParamDef&
ParamTable::operator[](ParamId p) const
{
    return defs_[checkedId(p)];
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

ParamTable::Range
ParamTable::store(const std::vector<int64_t>& vals)
{
    const Range r{values_.size(), vals.size()};
    values_.insert(values_.end(), vals.begin(), vals.end());
    return r;
}

ParamTable::Range
ParamTable::listLegal(const ParamDef& d)
{
    switch (d.kind) {
      case ParamKind::Toggle:
        return store({0, 1});
      case ParamKind::Fixed:
        break;
      case ParamKind::TileSize:
      case ParamKind::ParFactor:
        if (d.divisorOf > 0) {
            auto it = divisors_.find(d.divisorOf);
            if (it == divisors_.end())
                it = divisors_
                         .emplace(d.divisorOf,
                                  store(divisorsOf(d.divisorOf)))
                         .first;
            const Range all = it->second;
            const int64_t* first = values_.data() + all.offset;
            const int64_t* lo =
                std::lower_bound(first, first + all.length, d.minValue);
            const int64_t* hi =
                std::upper_bound(lo, first + all.length, d.maxValue);
            if (lo != hi)
                return Range{all.offset + size_t(lo - first),
                             size_t(hi - lo)};
        } else {
            // At most kMaxRangeSteps + 1 values from minValue, never
            // past maxValue and never past INT64_MAX.
            const int64_t hi =
                uint64_t(d.maxValue) - uint64_t(d.minValue) >
                        uint64_t(kMaxRangeSteps)
                    ? d.minValue + kMaxRangeSteps
                    : d.maxValue;
            std::vector<int64_t> vals;
            for (int64_t v = d.minValue;; ++v) {
                vals.push_back(v);
                if (v == hi)
                    break;
            }
            return store(vals);
        }
        break;
    }
    return store({d.defaultValue});
}

int64_t
ParamTable::listedValues(const ParamDef& d)
{
    if (d.kind == ParamKind::Toggle)
        return 2;
    if ((d.kind == ParamKind::TileSize || d.kind == ParamKind::ParFactor) &&
        d.divisorOf <= 0)
        return int64_t(std::min(uint64_t(d.maxValue) - uint64_t(d.minValue),
                                uint64_t(kMaxRangeSteps))) +
               1;
    return 1;
}

bool
ParamTable::isLegal(const ParamBinding& b) const
{
    if (b.values.size() != defs_.size())
        return false;
    for (size_t i = 0; i < defs_.size(); ++i) {
        const auto vals = legalValues(ParamId(i));
        if (!std::binary_search(vals.begin(), vals.end(), b.values[i]))
            return false;
    }
    return true;
}

} // namespace dhdl
