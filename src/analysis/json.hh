/**
 * @file
 * Minimal JSON value type and recursive-descent parser for the
 * cross-run analysis layer.
 *
 * The simulator only ever *wrote* JSON until PR 9; fl_report is the
 * first consumer that reads it back, and it must not drag a third-
 * party dependency into the build (the container bakes in only the
 * C++ toolchain).  This parser covers exactly the documents our own
 * writers emit -- objects, arrays, strings with the escapes
 * jsonQuote() produces, numbers, booleans, null -- and reports
 * errors as values with a line/column position instead of throwing,
 * matching the harness's errors-as-values style.
 *
 * Objects keep their members in a sorted std::map: iteration order is
 * deterministic regardless of input order, which is what makes every
 * report rendered from parsed documents byte-identical for identical
 * inputs.  Duplicate keys take the last value, like every mainstream
 * JSON library.
 */

#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace fenceless::analysis
{

class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }

    /**
     * Parse @p text into @p out.  On failure returns false and sets
     * @p error to a "line L, column C: what" message; @p out is left
     * null.  Trailing non-whitespace after the document is an error.
     */
    static bool parse(const std::string &text, Json &out,
                      std::string &error);

    // --- accessors (safe on any kind; wrong-kind reads return a
    // --- zero/empty value rather than trapping, so lookups compose) --

    double asDouble(double fallback = 0.0) const
    {
        return kind_ == Kind::Number ? num_ : fallback;
    }

    /** Number as a non-negative integer count (negatives clamp to 0). */
    std::uint64_t
    asU64() const
    {
        if (kind_ != Kind::Number || num_ <= 0.0)
            return 0;
        return static_cast<std::uint64_t>(num_);
    }

    std::int64_t
    asI64() const
    {
        return kind_ == Kind::Number ? static_cast<std::int64_t>(num_)
                                     : 0;
    }

    bool asBool() const { return kind_ == Kind::Bool && bool_; }

    const std::string &asString() const { return str_; }

    const std::vector<Json> &array() const { return arr_; }

    const std::map<std::string, Json> &object() const { return obj_; }

    /**
     * Member lookup; a shared null value when absent or not an
     * object, so chains like j["provenance"]["sim_mode"]["topology"]
     * never dereference past a missing level.
     */
    const Json &operator[](const std::string &key) const;

    bool
    has(const std::string &key) const
    {
        return kind_ == Kind::Object && obj_.count(key) > 0;
    }

  private:
    friend class Parser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<Json> arr_;
    std::map<std::string, Json> obj_;
};

} // namespace fenceless::analysis
