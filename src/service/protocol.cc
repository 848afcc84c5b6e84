#include "service/protocol.hh"

#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "core/catalog.hh"
#include "core/observability.hh"
#include "replacement/spec.hh"

namespace emissary::service
{

using stats::JsonValue;

namespace
{

/** Typed member access: absent returns nullptr, wrong type throws. */
const JsonValue *
optionalMember(const JsonValue &doc, const std::string &key,
               JsonValue::Type type, const char *type_name)
{
    const JsonValue *value = doc.find(key);
    if (!value)
        return nullptr;
    if (value->type() != type)
        throw RequestError(key, "request field '" + key +
                                    "' must be " + type_name);
    return value;
}

std::uint64_t
uintField(const JsonValue &value, const std::string &field)
{
    try {
        return value.asUint();
    } catch (const std::exception &) {
        throw RequestError(field,
                           "request field '" + field +
                               "' must be an unsigned integer");
    }
}

/** uintField for knobs held in 32 bits: a larger value would wrap. */
unsigned
u32Field(const JsonValue &value, const std::string &field)
{
    const std::uint64_t parsed = uintField(value, field);
    if (parsed > std::numeric_limits<std::uint32_t>::max())
        throw RequestError(field, "request field '" + field +
                                      "' must be at most 4294967295");
    return static_cast<unsigned>(parsed);
}

bool
boolField(const JsonValue &value, const std::string &field)
{
    if (value.type() != JsonValue::Type::Bool)
        throw RequestError(field, "request field '" + field +
                                      "' must be a boolean");
    return value.asBool();
}

/** The one string config knob, l1i_policy: policy notation. */
std::string
policyField(const JsonValue &value, const std::string &field)
{
    if (!value.isString())
        throw RequestError(field, "request field '" + field +
                                      "' must be a string");
    try {
        replacement::PolicySpec::parse(value.asString());
    } catch (const std::exception &error) {
        throw RequestError(field, error.what());
    }
    return value.asString();
}

/** Strict inverse of core::runOptionsJson, plus "seed". */
core::RunOptions
runOptionsFromJson(const JsonValue &config)
{
    if (!config.isObject())
        throw RequestError("config",
                           "request field 'config' must be an object");
    core::RunOptions options;
    for (const auto &[key, value] : config.members()) {
        const std::string field = "config." + key;
        if (key == "sampled_sets")
            throw RequestError(field,
                               "'sampled_sets' is a top-level request "
                               "key (it applies to fused monitor "
                               "lanes), not a config key");
        bool known = false;
        core::forEachRunOption([&](const char *name, auto member) {
            if (key != name)
                return;
            known = true;
            auto &knob = options.*member;
            using Knob = std::decay_t<decltype(knob)>;
            if constexpr (std::is_same_v<Knob, bool>)
                knob = boolField(value, field);
            else if constexpr (std::is_same_v<Knob, unsigned>)
                knob = u32Field(value, field);
            else if constexpr (std::is_same_v<Knob, std::string>)
                knob = policyField(value, field);
            else
                knob = uintField(value, field);
        });
        if (!known)
            throw RequestError(field, "unknown config key '" + key +
                                          "'");
    }
    if (options.measureInstructions == 0)
        throw RequestError("config.measure_instructions",
                           "measurement window must be non-zero");
    return options;
}

/** Resolve the request's workload rows from its catalog source. */
std::vector<core::GridWorkload>
resolveWorkloads(const JsonValue &doc)
{
    const JsonValue *inline_catalog = doc.find("catalog");
    const JsonValue *path = doc.find("catalog_path");
    if (!!inline_catalog == !!path)
        throw RequestError(
            "catalog",
            "a sweep request needs exactly one of 'catalog' "
            "(inline manifest object) or 'catalog_path'");

    core::WorkloadCatalog catalog;
    if (inline_catalog) {
        if (!inline_catalog->isObject())
            throw RequestError(
                "catalog",
                "request field 'catalog' must be a manifest object");
        try {
            catalog = core::WorkloadCatalog::parse(
                inline_catalog->dump(0), "", "request.catalog");
        } catch (const std::exception &error) {
            throw RequestError("catalog", error.what());
        }
    } else {
        if (!path->isString())
            throw RequestError("catalog_path",
                               "request field 'catalog_path' must "
                               "be a string");
        try {
            catalog = core::WorkloadCatalog::load(path->asString());
        } catch (const std::exception &error) {
            throw RequestError("catalog_path", error.what());
        }
    }

    std::vector<std::string> names;
    if (const JsonValue *subset = doc.find("workloads")) {
        if (!subset->isArray())
            throw RequestError("workloads",
                               "request field 'workloads' must be "
                               "an array of names");
        for (std::size_t i = 0; i < subset->size(); ++i) {
            if (!subset->at(i).isString())
                throw RequestError(
                    "workloads",
                    "request field 'workloads' must contain "
                    "strings");
            names.push_back(subset->at(i).asString());
        }
    }
    try {
        return catalog.select(names);
    } catch (const std::exception &error) {
        throw RequestError("workloads", error.what());
    }
}

} // namespace

ServiceRequest
parseRequest(const std::string &text)
{
    JsonValue doc;
    try {
        doc = JsonValue::parse(text);
    } catch (const std::exception &error) {
        throw RequestError("request", std::string("malformed JSON: ") +
                                          error.what());
    }
    if (!doc.isObject())
        throw RequestError("request",
                           "a request must be a JSON object");

    static const char *const known_keys[] = {
        "schema", "id",     "op",       "catalog",
        "catalog_path",     "workloads", "policies",
        "config", "fused",  "sampled_sets", "label"};
    for (const auto &[key, value] : doc.members()) {
        (void)value;
        bool known = false;
        for (const char *candidate : known_keys)
            known = known || key == candidate;
        if (!known)
            throw RequestError(key,
                               "unknown request key '" + key + "'");
    }

    const JsonValue *schema = doc.find("schema");
    if (!schema || !schema->isString() ||
        schema->asString() != "emissary.request.v1")
        throw RequestError(
            "schema", "request 'schema' must be the string "
                      "\"emissary.request.v1\"");

    ServiceRequest request;
    if (const JsonValue *id = optionalMember(
            doc, "id", JsonValue::Type::String, "a string"))
        request.id = id->asString();

    request.op = "sweep";
    if (const JsonValue *op = optionalMember(
            doc, "op", JsonValue::Type::String, "a string"))
        request.op = op->asString();
    if (request.op != "sweep" && request.op != "stats" &&
        request.op != "ping" && request.op != "shutdown")
        throw RequestError(
            "op", "unknown op '" + request.op +
                      "' (expected sweep, stats, ping or shutdown)");

    if (request.op != "sweep") {
        // Sweep-only keys on a control op are almost certainly a
        // client bug; reject rather than silently ignore.
        for (const char *sweep_key :
             {"catalog", "catalog_path", "workloads", "policies",
              "config", "fused", "sampled_sets"})
            if (doc.find(sweep_key))
                throw RequestError(sweep_key,
                                   "request key '" +
                                       std::string(sweep_key) +
                                       "' is only valid with op "
                                       "\"sweep\"");
        return request;
    }

    core::RunOptions options;
    if (const JsonValue *config = doc.find("config"))
        options = runOptionsFromJson(*config);

    const JsonValue *policies = doc.find("policies");
    if (!policies || !policies->isArray() || policies->size() == 0)
        throw RequestError("policies",
                           "a sweep request needs a non-empty "
                           "'policies' array");
    for (std::size_t i = 0; i < policies->size(); ++i) {
        const std::string field =
            "policies[" + std::to_string(i) + "]";
        if (!policies->at(i).isString())
            throw RequestError(field, "policy entries must be "
                                      "strings in paper notation");
        const std::string &notation = policies->at(i).asString();
        try {
            replacement::PolicySpec::parse(notation);
        } catch (const std::exception &error) {
            throw RequestError(field, error.what());
        }
        request.grid.runs.emplace_back(notation, options);
    }

    request.grid.workloads = resolveWorkloads(doc);
    if (request.grid.workloads.empty())
        throw RequestError("catalog",
                           "the request's catalog resolves to zero "
                           "workloads");

    if (const JsonValue *fused = doc.find("fused"))
        request.fused = boolField(*fused, "fused");
    if (const JsonValue *sampled = doc.find("sampled_sets")) {
        const unsigned factor = u32Field(*sampled, "sampled_sets");
        try {
            core::checkSampledSets(factor);
        } catch (const std::invalid_argument &error) {
            throw RequestError("sampled_sets", error.what());
        }
        request.sampledSets = factor;
    }
    return request;
}

JsonValue
errorJson(const std::string &id, const std::string &field,
          const std::string &message)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("emissary.error.v1"));
    if (!id.empty())
        doc.set("id", JsonValue(id));
    doc.set("field", JsonValue(field));
    doc.set("error", JsonValue(message));
    return doc;
}

JsonValue
sweepResponseJson(const std::string &id,
                  const core::PolicyGrid &grid,
                  const core::GridResults &results)
{
    JsonValue doc = JsonValue::object();
    doc.set("schema", JsonValue("emissary.response.v1"));
    if (!id.empty())
        doc.set("id", JsonValue(id));
    doc.set("op", JsonValue("sweep"));

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    JsonValue sweep = sweepJson(grid, results);
    JsonValue *runs = sweep.find("runs");
    // sweepJson emits runs workload-major, matching this walk; each
    // manifest gains the cell's counter registry so a response is
    // complete without any daemon-side file.
    std::size_t index = 0;
    for (std::size_t w = 0; w < grid.workloads.size(); ++w) {
        for (std::size_t r = 0; r < grid.runs.size(); ++r) {
            if (results.executionAt(w, r) ==
                core::CellExecution::Cached)
                ++hits;
            else
                ++misses;
            runs->at(index).set(
                "counters",
                core::registryJson(results.registryAt(w, r)));
            ++index;
        }
    }

    JsonValue cache = JsonValue::object();
    cache.set("hits", JsonValue(hits));
    cache.set("misses", JsonValue(misses));
    doc.set("cache", std::move(cache));
    doc.set("sweep", std::move(sweep));
    return doc;
}

} // namespace emissary::service
