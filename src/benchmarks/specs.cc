#include "benchmarks/specs.h"

#include "common/logging.h"
#include "common/string_util.h"
#include "workflow/analysis.h"
#include "workflow/wdl.h"

namespace faasflow::benchmarks {

namespace {

/** Parses a WDL document and fatals on error (specs are compiled in). */
Benchmark
fromYaml(std::string short_name, std::string long_name,
         const std::string& yaml)
{
    workflow::WdlResult result = workflow::parseWdlYaml(yaml);
    if (!result.ok())
        panic("benchmark %s: %s", short_name.c_str(), result.error.c_str());
    Benchmark bench;
    bench.name = std::move(short_name);
    bench.long_name = std::move(long_name);
    bench.dag = std::move(result.dag);
    bench.functions = std::move(result.functions);
    return bench;
}

/** Emits one `functions:` entry. */
std::string
fn(const std::string& name, double exec_ms, double peak_mb)
{
    return strFormat(
        "  - name: %s\n    exec_ms: %.1f\n    mem_mb: 256\n    peak_mb: %.1f\n",
        name.c_str(), exec_ms, peak_mb);
}

}  // namespace

Benchmark
cycles()
{
    // Pegasus Cycles: an agro-ecosystem parameter sweep — 15 independent
    // simulation/analysis pipelines (the heavy data lives on the
    // intra-branch edges), a combine stage, and an ensemble plot fan-out:
    // 50 task nodes, the largest data footprint of the suite (Fig. 5).
    std::string yaml;
    yaml += "name: Cyc\n";
    yaml += "functions:\n";
    yaml += fn("cyc_prepare", 300, 96);
    yaml += fn("cyc_validate", 200, 96);
    yaml += fn("cyc_sim", 1200, 96);
    yaml += fn("cyc_analyze", 400, 96);
    yaml += fn("cyc_reduce", 250, 96);
    yaml += fn("cyc_collect", 500, 96);
    yaml += fn("cyc_plot", 150, 96);
    yaml += fn("cyc_report", 200, 96);
    yaml += "steps:\n";
    yaml += "  - task: cyc_prepare\n    output_mb: 1.5\n";
    yaml += "  - task: cyc_validate\n    output_mb: 1.5\n";
    yaml += "  - parallel:\n      name: pipelines\n      branches:\n";
    for (int b = 0; b < 15; ++b) {
        yaml += "        - steps:\n";
        yaml += "            - task: cyc_sim\n              output_mb: 20\n";
        yaml += "            - task: cyc_analyze\n              output_mb: 2\n";
        yaml += "            - task: cyc_reduce\n              output_mb: 0.4\n";
    }
    yaml += "  - task: cyc_collect\n    output_mb: 2\n";
    yaml += "  - foreach:\n      name: plots\n      width: 8\n";
    yaml += "      steps:\n";
    yaml += "        - task: cyc_plot\n          output_mb: 1\n";
    yaml += "  - task: cyc_report\n";
    return fromYaml("Cyc", "Cycles (Pegasus)", yaml);
}

Benchmark
epigenomics()
{
    // Pegasus Epigenomics: 12 parallel map/filter/convert lanes over
    // sequence chunks (the heavy data is the per-lane map output),
    // followed by a merge and a long post-processing pipeline.
    std::string yaml;
    yaml += "name: Epi\n";
    yaml += "functions:\n";
    yaml += fn("epi_split", 200, 221.5);
    yaml += fn("epi_map", 600, 221.5);
    yaml += fn("epi_filter", 250, 221.5);
    yaml += fn("epi_sol2sanger", 200, 221.5);
    yaml += fn("epi_merge", 300, 221.5);
    yaml += fn("epi_post", 150, 221.5);
    yaml += "steps:\n";
    yaml += "  - task: epi_split\n    output_mb: 0.6\n";
    yaml += "  - parallel:\n      name: lanes\n      branches:\n";
    for (int b = 0; b < 12; ++b) {
        yaml += "        - steps:\n";
        yaml += "            - task: epi_map\n              output_mb: 4\n";
        yaml += "            - task: epi_filter\n              output_mb: 1\n";
        yaml += "            - task: epi_sol2sanger\n              output_mb: 0.5\n";
    }
    yaml += "  - task: epi_merge\n    output_mb: 0.6\n";
    for (int i = 0; i < 12; ++i)
        yaml += "  - task: epi_post\n    output_mb: 0.3\n";
    return fromYaml("Epi", "Epigenomics (Pegasus)", yaml);
}

Benchmark
genome(int tasks)
{
    // Pegasus 1000-Genome: per-individual processing fans out, then B
    // parallel mutation/frequency chains. `tasks` scales the node count
    // for the §5.6 scheduler-scalability experiment.
    if (tasks < 6)
        fatal("genome() needs at least 6 task nodes");
    const int branches = (tasks - 4) / 2;
    std::string yaml;
    yaml += "name: Gen\n";
    yaml += "functions:\n";
    yaml += fn("gen_prepare", 250, 215);
    yaml += fn("gen_individuals", 900, 215);
    yaml += fn("gen_sifting", 400, 215);
    yaml += fn("gen_mutation", 500, 215);
    yaml += fn("gen_frequency", 300, 215);
    yaml += fn("gen_gather", 250, 215);
    yaml += "steps:\n";
    yaml += "  - task: gen_prepare\n    output_mb: 4\n";
    yaml += "  - foreach:\n      name: individuals\n      width: 8\n";
    yaml += "      steps:\n";
    yaml += "        - task: gen_individuals\n          output_mb: 45\n";
    yaml += "  - task: gen_sifting\n    output_mb: 3\n";
    yaml += "  - parallel:\n      name: analysis\n      branches:\n";
    for (int b = 0; b < branches; ++b) {
        yaml += "        - steps:\n";
        yaml += "            - task: gen_mutation\n              output_mb: 4\n";
        yaml += "            - task: gen_frequency\n              output_mb: 1.5\n";
    }
    yaml += "  - task: gen_gather\n    output_mb: 0.5\n";
    return fromYaml("Gen", "1000-Genome (Pegasus)", yaml);
}

Benchmark
soykb()
{
    // Pegasus SoyKB: re-sequencing pipelines. The functions run close to
    // their provisioned memory (peak 236 MB of 256 MB), so Eq. 1 leaves
    // FaaStore almost no reclaimable quota — this is the benchmark whose
    // data movement barely improves (Table 4: 5.2%).
    std::string yaml;
    yaml += "name: Soy\n";
    yaml += "functions:\n";
    yaml += fn("soy_prepare", 250, 222.41);
    yaml += fn("soy_align", 800, 222.41);
    yaml += fn("soy_sort", 350, 222.41);
    yaml += fn("soy_haplotype", 500, 222.41);
    yaml += fn("soy_filter", 300, 222.41);
    yaml += fn("soy_annotate", 200, 222.41);
    yaml += fn("soy_merge", 300, 222.41);
    yaml += fn("soy_report", 200, 222.41);
    yaml += "steps:\n";
    yaml += "  - task: soy_prepare\n    output_mb: 1.5\n";
    yaml += "  - foreach:\n      name: alignment\n      width: 8\n";
    yaml += "      steps:\n";
    yaml += "        - task: soy_align\n          output_mb: 5\n";
    yaml += "  - task: soy_sort\n    output_mb: 2\n";
    yaml += "  - parallel:\n      name: calling\n      branches:\n";
    for (int b = 0; b < 15; ++b) {
        yaml += "        - steps:\n";
        yaml += "            - task: soy_haplotype\n              output_mb: 1.2\n";
        yaml += "            - task: soy_filter\n              output_mb: 0.4\n";
        yaml += "            - task: soy_annotate\n              output_mb: 0.1\n";
    }
    yaml += "  - task: soy_merge\n    output_mb: 0.4\n";
    yaml += "  - task: soy_report\n";
    return fromYaml("Soy", "SoyKB (Pegasus)", yaml);
}

Benchmark
videoFfmpeg()
{
    // Alibaba Function Compute FFmpeg use case: probe, split, parallel
    // chunk transcode (foreach), merge, store.
    std::string yaml;
    yaml += "name: Vid\n";
    yaml += "functions:\n";
    yaml += fn("vid_probe", 100, 221.7);
    yaml += fn("vid_split", 250, 221.7);
    yaml += fn("vid_transcode", 800, 221.7);
    yaml += fn("vid_merge", 400, 221.7);
    yaml += fn("vid_store", 150, 221.7);
    yaml += "steps:\n";
    yaml += "  - task: vid_probe\n    output_mb: 0.2\n";
    yaml += "  - task: vid_split\n    output_mb: 8\n";
    yaml += "  - foreach:\n      name: transcode\n      width: 8\n";
    yaml += "      steps:\n";
    yaml += "        - task: vid_transcode\n          output_mb: 1.2\n";
    yaml += "  - task: vid_merge\n    output_mb: 1.2\n";
    yaml += "  - task: vid_store\n";
    return fromYaml("Vid", "Video-FFmpeg (Alibaba)", yaml);
}

Benchmark
illegalRecognizer()
{
    // Google Cloud Functions composite: OCR extract, translate, then a
    // switch (offensive -> blur, clean -> archive), finally store.
    std::string yaml;
    yaml += "name: IR\n";
    yaml += "functions:\n";
    yaml += fn("ir_extract", 350, 222.37);
    yaml += fn("ir_translate", 250, 222.37);
    yaml += fn("ir_blur", 300, 222.37);
    yaml += fn("ir_archive", 120, 222.37);
    yaml += fn("ir_store", 100, 222.37);
    yaml += "steps:\n";
    yaml += "  - task: ir_extract\n    output_mb: 0.3\n";
    yaml += "  - task: ir_translate\n    output_mb: 0.1\n";
    yaml += "  - switch:\n      name: moderation\n      branches:\n";
    yaml += "        - steps:\n";
    yaml += "            - task: ir_blur\n              output_mb: 0.4\n";
    yaml += "        - steps:\n";
    yaml += "            - task: ir_archive\n              output_mb: 0.05\n";
    yaml += "  - task: ir_store\n";
    return fromYaml("IR", "Illegal Recognizer (Google)", yaml);
}

Benchmark
fileProcessing()
{
    // AWS Lambda real-time file processing: fetch the note, convert to
    // HTML and detect sentiment in parallel, persist.
    std::string yaml;
    yaml += "name: FP\n";
    yaml += "functions:\n";
    yaml += fn("fp_fetch", 120, 222.1);
    yaml += fn("fp_convert", 300, 222.1);
    yaml += fn("fp_sentiment", 250, 222.1);
    yaml += fn("fp_persist", 100, 222.1);
    yaml += "steps:\n";
    yaml += "  - task: fp_fetch\n    output_mb: 0.6\n";
    yaml += "  - parallel:\n      name: process\n      branches:\n";
    yaml += "        - steps:\n";
    yaml += "            - task: fp_convert\n              output_mb: 0.7\n";
    yaml += "        - steps:\n";
    yaml += "            - task: fp_sentiment\n              output_mb: 0.2\n";
    yaml += "  - task: fp_persist\n";
    return fromYaml("FP", "File Processing (AWS)", yaml);
}

Benchmark
wordCount()
{
    // The classic map/reduce word count (Zhang et al. [64]).
    std::string yaml;
    yaml += "name: WC\n";
    yaml += "functions:\n";
    yaml += fn("wc_split", 150, 222.13);
    yaml += fn("wc_count", 400, 222.13);
    yaml += fn("wc_reduce", 200, 222.13);
    yaml += "steps:\n";
    yaml += "  - task: wc_split\n    output_mb: 2\n";
    yaml += "  - foreach:\n      name: counters\n      width: 6\n";
    yaml += "      steps:\n";
    yaml += "        - task: wc_count\n          output_mb: 1\n";
    yaml += "  - task: wc_reduce\n    output_mb: 0.1\n";
    return fromYaml("WC", "Word Count", yaml);
}

std::vector<Benchmark>
allBenchmarks()
{
    std::vector<Benchmark> out;
    out.push_back(cycles());
    out.push_back(epigenomics());
    out.push_back(genome());
    out.push_back(soykb());
    out.push_back(videoFfmpeg());
    out.push_back(illegalRecognizer());
    out.push_back(fileProcessing());
    out.push_back(wordCount());
    return out;
}

std::vector<Benchmark>
scientificBenchmarks()
{
    std::vector<Benchmark> out;
    out.push_back(cycles());
    out.push_back(epigenomics());
    out.push_back(genome());
    out.push_back(soykb());
    return out;
}

std::vector<Benchmark>
realWorldBenchmarks()
{
    std::vector<Benchmark> out;
    out.push_back(videoFfmpeg());
    out.push_back(illegalRecognizer());
    out.push_back(fileProcessing());
    out.push_back(wordCount());
    return out;
}

workflow::Dag
stripPayloads(const workflow::Dag& dag)
{
    workflow::Dag stripped = dag;
    for (size_t e = 0; e < stripped.edgeCount(); ++e) {
        stripped.edge(e).payload.clear();
        stripped.edge(e).weight = SimTime::zero();
    }
    return stripped;
}

int64_t
monolithicBytes(const workflow::Dag& dag)
{
    // Each produced datum is counted once: in a single process the
    // producer's output is shared in memory by every consumer.
    int64_t total = 0;
    for (const int64_t bytes : workflow::indexDag(dag).output_bytes)
        total += bytes;
    return total;
}

int64_t
faasShippedBytes(const workflow::Dag& dag)
{
    // One store write per produced datum plus one fetch per consuming
    // executor instance (foreach width amplifies the fetches).
    const workflow::DagIndex index = workflow::indexDag(dag);
    int64_t shipped = 0;
    for (size_t i = 0; i < index.output_bytes.size(); ++i) {
        const int64_t bytes = index.output_bytes[i];
        shipped += bytes;
        for (const workflow::NodeId to : index.consumers[i])
            shipped += bytes * dag.node(to).foreach_width;
    }
    return shipped;
}

}  // namespace faasflow::benchmarks
