/**
 * @file
 * String and numeric-formatting helpers used by reports and parsers.
 */

#ifndef EMISSARY_UTIL_STRUTIL_HH
#define EMISSARY_UTIL_STRUTIL_HH

#include <cstdint>
#include <string>
#include <vector>

namespace emissary
{

/** Split @p text at every occurrence of @p sep (separator dropped). */
std::vector<std::string> split(const std::string &text, char sep);

/** Strip leading and trailing ASCII whitespace. */
std::string trim(const std::string &text);

/**
 * Parse @p text as a plain unsigned decimal: ASCII digits only — no
 * sign, space, prefix or suffix — with a value of at most @p max.
 * @return False, leaving @p out untouched, for anything else.
 */
bool parseDecimal(const std::string &text, std::uint64_t max,
                  std::uint64_t &out);

/** Uppercase an ASCII string. */
std::string toUpper(const std::string &text);

/** Format @p value with @p decimals digits, e.g. 3.24 -> "3.24";
 *  a NaN, a figure the run did not measure, prints as "n/a". */
std::string formatDouble(double value, int decimals);

/** Format a ratio as a signed percentage string, e.g. "+3.24%". */
std::string formatPercent(double fraction, int decimals = 2);

/** Geometric mean of speedup ratios (inputs are ratios, not percents). */
double geomean(const std::vector<double> &ratios);

/** Arithmetic mean; returns 0 for an empty input. */
double mean(const std::vector<double> &values);

} // namespace emissary

#endif // EMISSARY_UTIL_STRUTIL_HH
