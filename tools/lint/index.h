// Phase-1 output, phase-2 input: the cross-TU index.
//
// index_file() extracts, from one stripped translation unit, everything the
// phase-2 semantic rules need: the quoted include list, every declared
// function with its return-type category / [[nodiscard]]-ness / parameter
// list / body range, the mutex inventory, and view-typed member names.
// build_index() merges per-file entries into tree-wide tables (the
// error-returning function table, the mutex name set, the view-member set).
//
// All of it is token-level heuristics, not a real C++ parser — precise
// enough for this codebase's style, and every rule built on it accepts
// inline allow() annotations for the residue.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "lint/linter.h"
#include "lint/scan.h"

namespace storsubsim::lint {

/// Return-type classification the phase-2 rules care about.
enum class TypeCategory : std::uint8_t {
  kOther,
  kError,  ///< store::Error / Result / Expected-style must-check types
  kView,   ///< std::string_view / std::span / LogView / ColumnView / EventView
};

struct Param {
  std::string name;
  /// The parameter owns its buffer and dies with the call: an owning type
  /// (std::string, std::vector, ...) taken by value or rvalue reference.
  bool owning_by_value = false;
};

struct FuncDef {
  std::string name;            ///< last identifier of the declarator
  std::size_t line = 0;        ///< 1-based line of the name
  std::size_t offset = 0;      ///< offset of the name in stripped code
  TypeCategory ret = TypeCategory::kOther;
  bool nodiscard = false;      ///< [[nodiscard]] present on this declaration
  bool has_body = false;
  std::size_t body_begin = 0;  ///< offset of '{' in stripped code (when has_body)
  std::size_t body_end = 0;    ///< offset of matching '}'
  std::vector<Param> params;
  /// Constructor member-init items as (member, argument-text) pairs.
  std::vector<std::pair<std::string, std::string>> ctor_inits;
};

struct IncludeRef {
  std::string target;    ///< the quoted include string, verbatim
  std::size_t line = 0;  ///< 1-based
};

struct FileEntry {
  std::string display_path;
  const std::string* contents = nullptr;  ///< borrowed from the engine
  Stripped stripped;
  std::vector<Annotation> annotations;
  std::vector<IncludeRef> includes;
  std::vector<FuncDef> functions;
  std::vector<std::string> mutex_names;   ///< mutex-typed declarations in this file
  std::vector<std::string> view_members;  ///< view-typed members (no initializer)
};

/// Parses one file into its index entry. `contents` must outlive the entry.
FileEntry index_file(std::string display_path, const std::string& contents);

struct TreeIndex {
  std::vector<FileEntry> files;  ///< in engine order (sorted by display path)
  /// Error-returning function names declared in src/ -> true when any
  /// declaration of that name carries [[nodiscard]].
  std::map<std::string, bool> error_functions;
  /// Union of mutex names declared anywhere in src/ (sorted, unique).
  std::vector<std::string> mutex_names;
  /// Union of view-typed member names declared in src/ (sorted, unique).
  std::vector<std::string> view_members;
};

/// Merges per-file entries (already in engine order) into the tree tables.
TreeIndex build_index(std::vector<FileEntry> files);

// --- phase-2 rule families ---------------------------------------------------

void check_view_lifetime(const TreeIndex& index, std::vector<Finding>* findings);
void check_error_discipline(const TreeIndex& index, std::vector<Finding>* findings);
void check_layering(const TreeIndex& index, std::vector<Finding>* findings);
void check_lock_discipline(const TreeIndex& index, std::vector<Finding>* findings);
void check_analysis_overload(const TreeIndex& index, std::vector<Finding>* findings);
void check_unused_export(const TreeIndex& index, std::vector<Finding>* findings);

/// The declared layering DAG over src/ (docs/static-analysis.md): for each
/// layer directory, the set of layers it may include (its transitive
/// dependency closure, self excluded). Exposed for the docs test and the
/// rule implementation.
const std::map<std::string, std::vector<std::string>>& layer_closure();

}  // namespace storsubsim::lint
