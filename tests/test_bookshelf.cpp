#include "hypergraph/bookshelf.hpp"

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <string_view>

#include "core/algorithm1.hpp"
#include "test_helpers.hpp"

namespace fhp {
namespace {

constexpr const char* kNodes =
    "UCLA nodes 1.0\n"
    "# generated\n"
    "\n"
    "NumNodes : 5\n"
    "NumTerminals : 2\n"
    "  a1 2 3\n"
    "  a2 1 1\n"
    "  a3 4 2\n"
    "  p1 0 0 terminal\n"
    "  p2 0 0 terminal\n";

constexpr const char* kNets =
    "UCLA nets 1.0\n"
    "\n"
    "NumNets : 2\n"
    "NumPins : 5\n"
    "NetDegree : 3 sig0\n"
    "  a1 O : 0.5 0.5\n"
    "  a2 I\n"
    "  p1 I\n"
    "NetDegree : 2\n"
    "  a3 B\n"
    "  p2 B\n";

BookshelfDesign parse_sample() {
  std::istringstream nodes(kNodes);
  std::istringstream nets(kNets);
  return read_bookshelf(nodes, nets);
}

TEST(Bookshelf, ParsesNodesAndNets) {
  const BookshelfDesign d = parse_sample();
  const Hypergraph& h = d.netlist.hypergraph;
  EXPECT_EQ(h.num_vertices(), 5U);
  EXPECT_EQ(h.num_edges(), 2U);
  EXPECT_EQ(h.num_pins(), 5U);
  EXPECT_EQ(h.vertex_weight(d.netlist.vertex("a1")), 6);  // 2 x 3
  EXPECT_EQ(h.vertex_weight(d.netlist.vertex("p1")), 1);  // clamped
  EXPECT_EQ(d.netlist.edge_names[0], "sig0");
  EXPECT_EQ(d.netlist.edge_names[1], "n1");  // auto-named
  EXPECT_EQ(d.is_terminal[d.netlist.vertex("p1")], 1);
  EXPECT_EQ(d.is_terminal[d.netlist.vertex("a1")], 0);
  h.validate();
}

TEST(Bookshelf, RoundTrip) {
  const BookshelfDesign d = parse_sample();
  std::ostringstream nodes_out;
  std::ostringstream nets_out;
  write_bookshelf(nodes_out, nets_out, d);
  std::istringstream nodes_in(nodes_out.str());
  std::istringstream nets_in(nets_out.str());
  const BookshelfDesign back = read_bookshelf(nodes_in, nets_in);
  EXPECT_EQ(back.netlist.hypergraph.num_vertices(), 5U);
  EXPECT_EQ(back.netlist.hypergraph.num_pins(), 5U);
  EXPECT_EQ(back.is_terminal, d.is_terminal);
  EXPECT_EQ(back.netlist.vertex_names, d.netlist.vertex_names);
  for (VertexId v = 0; v < 5; ++v) {
    EXPECT_EQ(back.netlist.hypergraph.vertex_weight(v),
              d.netlist.hypergraph.vertex_weight(v));
  }
}

TEST(Bookshelf, PartitionsDirectly) {
  const BookshelfDesign d = parse_sample();
  const Algorithm1Result r = algorithm1(d.netlist.hypergraph);
  EXPECT_TRUE(r.metrics.proper);
}

TEST(Bookshelf, RejectsMalformedInput) {
  {
    std::istringstream nodes("not a header\n");
    std::istringstream nets(kNets);
    EXPECT_THROW((void)read_bookshelf(nodes, nets), IoError);
  }
  {
    std::istringstream nodes(
        "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n a 1 1\n");
    std::istringstream nets(
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 1\nNetDegree : 1\n zzz B\n");
    EXPECT_THROW((void)read_bookshelf(nodes, nets), IoError);  // unknown node
  }
  {
    std::istringstream nodes(
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n a 1 1\n a 1 1\n");
    std::istringstream nets("UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n");
    EXPECT_THROW((void)read_bookshelf(nodes, nets), IoError);  // dup node
  }
  {
    std::istringstream nodes(
        "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 0\n a 1 1\n");
    std::istringstream nets(
        "UCLA nets 1.0\nNumNets : 1\nNumPins : 5\nNetDegree : 1\n a B\n");
    EXPECT_THROW((void)read_bookshelf(nodes, nets), IoError);  // pin count
  }
  {
    std::istringstream nodes(
        "UCLA nodes 1.0\nNumNodes : 1\nNumTerminals : 5\n a 1 1\n");
    std::istringstream nets("UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n");
    EXPECT_THROW((void)read_bookshelf(nodes, nets), IoError);  // terminals
  }
  {
    // Each node area fits in Weight; their total does not. Both parsers.
    const std::string nodes_text =
        "UCLA nodes 1.0\nNumNodes : 2\nNumTerminals : 0\n"
        " a 3000000000 2000000000\n b 3000000000 2000000000\n";
    const std::string nets_text = "UCLA nets 1.0\nNumNets : 0\nNumPins : 0\n";
    std::istringstream nodes(nodes_text);
    std::istringstream nets(nets_text);
    EXPECT_THROW((void)read_bookshelf(nodes, nets), IoError);
    EXPECT_THROW((void)read_bookshelf(std::string_view(nodes_text),
                                      std::string_view(nets_text)),
                 IoError);
  }
}

TEST(Bookshelf, MissingFilesThrow) {
  EXPECT_THROW((void)read_bookshelf_files("/nonexistent/a.nodes",
                                          "/nonexistent/a.nets"),
               IoError);
}

}  // namespace
}  // namespace fhp
