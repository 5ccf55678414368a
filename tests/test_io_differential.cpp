/// Differential tests: the mmap/SWAR parsers (io_scan.cpp,
/// bookshelf_scan.cpp) must be bit-identical to the legacy istream oracles
/// on every well-formed input we can produce — writer round-trips across
/// the generator zoo and the sharded streaming writers.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "gen/circuit.hpp"
#include "gen/grid.hpp"
#include "gen/planted.hpp"
#include "gen/random_hypergraph.hpp"
#include "gen/sharded.hpp"
#include "gen/structured.hpp"
#include "hypergraph/bookshelf.hpp"
#include "hypergraph/io.hpp"
#include "test_helpers.hpp"
#include "util/mmap.hpp"

namespace fhp {
namespace {

void expect_same_hypergraph(const Hypergraph& fast, const Hypergraph& oracle) {
  ASSERT_EQ(fast.num_vertices(), oracle.num_vertices());
  ASSERT_EQ(fast.num_edges(), oracle.num_edges());
  ASSERT_EQ(fast.num_pins(), oracle.num_pins());
  for (EdgeId e = 0; e < fast.num_edges(); ++e) {
    const auto pf = fast.pins(e);
    const auto po = oracle.pins(e);
    ASSERT_EQ(pf.size(), po.size()) << "edge " << e;
    for (std::size_t i = 0; i < pf.size(); ++i) {
      ASSERT_EQ(pf[i], po[i]) << "edge " << e << " pin " << i;
    }
    ASSERT_EQ(fast.edge_weight(e), oracle.edge_weight(e)) << "edge " << e;
  }
  for (VertexId v = 0; v < fast.num_vertices(); ++v) {
    ASSERT_EQ(fast.vertex_weight(v), oracle.vertex_weight(v)) << "vertex " << v;
  }
}

/// Runs both hMETIS parsers over \p text and asserts identity.
void expect_hmetis_agreement(const std::string& text) {
  std::istringstream in(text);
  const Hypergraph oracle = read_hmetis(in);
  const Hypergraph fast = read_hmetis(std::string_view(text));
  expect_same_hypergraph(fast, oracle);
}

TEST(IoDifferential, HandWrittenHmetisVariants) {
  expect_hmetis_agreement("3 4\n1 2\n2 3 4\n1 4\n");
  expect_hmetis_agreement("2 2 1\n5 1 2\n3 1 2\n");      // edge weights
  expect_hmetis_agreement("1 2 10\n1 2\n7\n9\n");        // vertex weights
  expect_hmetis_agreement("1 2 11\n4 1 2\n7\n9\n");      // both
  expect_hmetis_agreement("% c\n\n2 3\n% e\n1 2\n\n2 3\n");
  expect_hmetis_agreement("1 3\n2 1 2 1\n");             // duplicate pins
  expect_hmetis_agreement("2 3\r\n1 2\r\n2 3\r\n");      // CRLF
  expect_hmetis_agreement("1 2\n1 2");                   // no trailing newline
}

TEST(IoDifferential, GeneratorRoundTripsHmetis) {
  const Hypergraph instances[] = {
      generate_circuit(gate_array_params(0.1), 7),
      random_hypergraph({.num_vertices = 80,
                         .num_edges = 120,
                         .min_edge_size = 2,
                         .max_edge_size = 6},
                        11),
      planted_instance({.num_vertices = 60, .num_edges = 90}, 3).hypergraph,
      grid_circuit({.rows = 8, .cols = 9}),
  };
  for (const Hypergraph& h : instances) {
    std::ostringstream out;
    write_hmetis(out, h);
    expect_hmetis_agreement(out.str());
  }
}

TEST(IoDifferential, BookshelfAgreesOnWriterRoundTrip) {
  const Hypergraph h = generate_circuit(gate_array_params(0.1), 5);
  BookshelfDesign d;
  d.netlist.hypergraph = h;
  for (VertexId v = 0; v < h.num_vertices(); ++v) {
    d.netlist.vertex_names.push_back("m" + std::to_string(v));
  }
  for (EdgeId e = 0; e < h.num_edges(); ++e) {
    d.netlist.edge_names.push_back("n" + std::to_string(e));
  }
  d.is_terminal.assign(h.num_vertices(), 0);
  std::ostringstream nodes_out;
  std::ostringstream nets_out;
  write_bookshelf(nodes_out, nets_out, d);
  const std::string nodes = nodes_out.str();
  const std::string nets = nets_out.str();

  std::istringstream nodes_in(nodes);
  std::istringstream nets_in(nets);
  const BookshelfDesign oracle = read_bookshelf(nodes_in, nets_in);
  const BookshelfDesign fast =
      read_bookshelf(std::string_view(nodes), std::string_view(nets));
  expect_same_hypergraph(fast.netlist.hypergraph, oracle.netlist.hypergraph);
  EXPECT_EQ(fast.netlist.vertex_names, oracle.netlist.vertex_names);
  EXPECT_EQ(fast.netlist.edge_names, oracle.netlist.edge_names);
  EXPECT_EQ(fast.is_terminal, oracle.is_terminal);
}

class ShardedRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = test::per_test_temp_dir("fhp_test_sharded");
    std::filesystem::create_directories(dir_);
    params_ = gate_array_params(1.0);
    params_.num_modules = 3000;
    params_.num_nets = 4200;
  }
  void TearDown() override {
    std::error_code ec;
    std::filesystem::remove_all(dir_, ec);
  }
  std::filesystem::path dir_;
  CircuitParams params_;
};

TEST_F(ShardedRoundTrip, HmetisParsersAgreeAndMatchStats) {
  const std::string path = (dir_ / "sharded.hgr").string();
  // Small chunks so the test crosses several chunk boundaries.
  const ShardedNetlistStats stats =
      write_sharded_hmetis(path, params_, 99, /*nets_per_chunk=*/512);
  EXPECT_EQ(stats.num_modules, 3000U);
  EXPECT_GE(stats.num_chunks, 8U);

  const Hypergraph fast = read_hmetis_file(path);
  std::ifstream in(path);
  const Hypergraph oracle = read_hmetis(in);
  expect_same_hypergraph(fast, oracle);
  EXPECT_EQ(fast.num_vertices(), stats.num_modules);
  EXPECT_EQ(fast.num_edges(), stats.num_nets);
  // Dedupe can only shrink the pin count relative to what was written.
  EXPECT_LE(fast.num_pins(), stats.num_pins);
  fast.validate();
}

TEST_F(ShardedRoundTrip, HmetisOutputIsDeterministic) {
  const std::string a = (dir_ / "a.hgr").string();
  const std::string b = (dir_ / "b.hgr").string();
  (void)write_sharded_hmetis(a, params_, 99, 512);
  (void)write_sharded_hmetis(b, params_, 99, 512);
  const MappedFile fa(a);
  const MappedFile fb(b);
  EXPECT_EQ(fa.view(), fb.view());

  const std::string c = (dir_ / "c.hgr").string();
  (void)write_sharded_hmetis(c, params_, 100, 512);  // different seed
  const MappedFile fc(c);
  EXPECT_NE(fa.view(), fc.view());
}

TEST_F(ShardedRoundTrip, BookshelfParsersAgree) {
  const std::string nodes = (dir_ / "sharded.nodes").string();
  const std::string nets = (dir_ / "sharded.nets").string();
  const ShardedNetlistStats stats =
      write_sharded_bookshelf(nodes, nets, params_, 99, 512);

  const BookshelfDesign fast = read_bookshelf_files(nodes, nets);
  std::ifstream nodes_in(nodes);
  std::ifstream nets_in(nets);
  const BookshelfDesign oracle = read_bookshelf(nodes_in, nets_in);
  expect_same_hypergraph(fast.netlist.hypergraph, oracle.netlist.hypergraph);
  EXPECT_EQ(fast.netlist.vertex_names, oracle.netlist.vertex_names);
  EXPECT_EQ(fast.netlist.edge_names, oracle.netlist.edge_names);
  EXPECT_EQ(fast.is_terminal, oracle.is_terminal);
  EXPECT_EQ(fast.netlist.hypergraph.num_vertices(), stats.num_modules);
  EXPECT_EQ(fast.netlist.hypergraph.num_edges(), stats.num_nets);
}

TEST_F(ShardedRoundTrip, HmetisAndBookshelfDescribeTheSameNetlist) {
  const std::string hgr = (dir_ / "same.hgr").string();
  const std::string nodes = (dir_ / "same.nodes").string();
  const std::string nets = (dir_ / "same.nets").string();
  (void)write_sharded_hmetis(hgr, params_, 7, 512);
  (void)write_sharded_bookshelf(nodes, nets, params_, 7, 512);

  const Hypergraph from_hgr = read_hmetis_file(hgr);
  const BookshelfDesign from_bs = read_bookshelf_files(nodes, nets);
  expect_same_hypergraph(from_bs.netlist.hypergraph, from_hgr);
}

TEST_F(ShardedRoundTrip, RejectsUnsupportedParams) {
  const std::string path = (dir_ / "bad.hgr").string();
  CircuitParams weighted = params_;
  weighted.weight_geometric_p = 0.5;  // streaming writers are unit-weight
  EXPECT_THROW((void)write_sharded_hmetis(path, weighted, 1),
               PreconditionError);
  CircuitParams tiny = params_;
  tiny.num_modules = 2;
  EXPECT_THROW((void)write_sharded_hmetis(path, tiny, 1), PreconditionError);
  EXPECT_THROW((void)write_sharded_hmetis(path, params_, 1,
                                          /*nets_per_chunk=*/0),
               PreconditionError);
}

}  // namespace
}  // namespace fhp
