// WordCount: the engine as a plain (non-iterative) dataflow system — the
// §2.1 "grep-style log analysis" end of the workload spectrum. Shows the
// raw Plan/Executor API without the iteration and recovery layers.
//
//   ./examples/wordcount
//   ./examples/wordcount --text="to be or not to be" --partitions=2

#include <iostream>

#include "common/flags.h"
#include "common/strings.h"
#include "dataflow/executor.h"
#include "dataflow/plan.h"

using namespace flinkless;
using dataflow::MakeRecord;
using dataflow::Record;

int main(int argc, char** argv) {
  FlagParser flags;
  std::string* text = flags.String(
      "text",
      "optimistic recovery for iterative dataflows in action "
      "iterative dataflows recover with compensation functions "
      "not with checkpoints so failure free dataflows run at full speed",
      "input text");
  int64_t* partitions = flags.Int64("partitions", 4, "degree of parallelism");
  int64_t* min_count = flags.Int64("min-count", 1, "only print words with "
                                                   "at least this count");
  if (auto exit_code = flags.ParseMain(argc, argv)) return *exit_code;
  const int parts = static_cast<int>(*partitions);

  // One record per input line (here: the whole text as one line per 8
  // words, to give the partitions something to do).
  auto words = SplitWhitespace(*text);
  std::vector<Record> lines;
  for (size_t i = 0; i < words.size(); i += 8) {
    std::string line;
    for (size_t j = i; j < std::min(i + 8, words.size()); ++j) {
      if (j > i) line += " ";
      line += words[j];
    }
    lines.push_back(MakeRecord(line));
  }
  auto input = dataflow::PartitionedDataset::RoundRobin(lines, parts);

  // The classic three-operator dataflow: tokenize, count, filter.
  dataflow::Plan plan;
  auto source = plan.Source("lines");
  auto tokens = plan.FlatMap(
      source,
      [](const Record& r, std::vector<Record>* out) {
        for (const std::string& word : SplitWhitespace(r[0].AsString())) {
          out->push_back(MakeRecord(word, int64_t{1}));
        }
      },
      "tokenize");
  auto counts = plan.ReduceByKey(
      tokens, {0},
      [](const Record& a, const Record& b) {
        return MakeRecord(a[0].AsString(), a[1].AsInt64() + b[1].AsInt64());
      },
      "count");
  int64_t threshold = *min_count;
  auto frequent = plan.Filter(
      counts,
      [threshold](const Record& r) { return r[1].AsInt64() >= threshold; },
      "frequent");
  plan.Output(frequent, "counts");

  std::cout << "plan:\n" << plan.Explain() << "\n";

  dataflow::Executor executor({parts, nullptr, nullptr});
  dataflow::ExecStats stats;
  auto outputs = executor.Execute(plan, {{"lines", &input}}, &stats);
  if (!outputs.ok()) {
    std::cerr << outputs.status() << "\n";
    return 1;
  }

  // Sort by descending count for display.
  auto result = outputs->at("counts").Collect();
  std::sort(result.begin(), result.end(),
            [](const Record& a, const Record& b) {
              if (a[1].AsInt64() != b[1].AsInt64()) {
                return a[1].AsInt64() > b[1].AsInt64();
              }
              return a[0].AsString() < b[0].AsString();
            });
  for (const Record& r : result) {
    std::cout << "  " << r[1].AsInt64() << "  " << r[0].AsString() << "\n";
  }
  std::cout << "\n" << stats.records_processed << " records processed, "
            << stats.messages_shuffled << " shuffled across partitions\n";
  return 0;
}
