// Tests for the terminal demo layer: the playback transport controls
// (§3.1's play/pause/backward buttons) and the frame renderers.

#include <gtest/gtest.h>

#include "algos/datasets.h"
#include "viz/playback.h"
#include "viz/render.h"

namespace flinkless::viz {
namespace {

// -------------------------------------------------------------- Playback --

TEST(PlaybackTest, StartsPausedAtFirstFrame) {
  Playback<int> playback({10, 20, 30});
  EXPECT_EQ(playback.size(), 3u);
  EXPECT_EQ(playback.position(), 0u);
  EXPECT_EQ(playback.Current(), 10);
  EXPECT_EQ(playback.state(), PlayState::kPaused);
}

TEST(PlaybackTest, StepForwardWalksToEnd) {
  Playback<int> playback({1, 2, 3});
  EXPECT_TRUE(playback.StepForward());
  EXPECT_EQ(playback.Current(), 2);
  EXPECT_TRUE(playback.StepForward());
  EXPECT_EQ(playback.Current(), 3);
  EXPECT_FALSE(playback.StepForward());  // end reached
  EXPECT_EQ(playback.state(), PlayState::kFinished);
  EXPECT_EQ(playback.Current(), 3);      // cursor stays at last frame
}

TEST(PlaybackTest, BackwardButtonStepsAndPauses) {
  Playback<int> playback({1, 2, 3});
  playback.Play();
  playback.StepForward();
  playback.StepForward();
  EXPECT_TRUE(playback.StepBackward());
  EXPECT_EQ(playback.Current(), 2);
  EXPECT_EQ(playback.state(), PlayState::kPaused);
  EXPECT_TRUE(playback.StepBackward());
  EXPECT_FALSE(playback.StepBackward());  // at frame 0
  EXPECT_EQ(playback.Current(), 1);
}

TEST(PlaybackTest, BackwardAfterFinishReopensPlayback) {
  Playback<int> playback({1, 2});
  playback.StepForward();
  playback.StepForward();  // finished
  EXPECT_EQ(playback.state(), PlayState::kFinished);
  EXPECT_TRUE(playback.StepBackward());
  EXPECT_EQ(playback.state(), PlayState::kPaused);
  EXPECT_EQ(playback.Current(), 1);
  EXPECT_TRUE(playback.StepForward());  // can move forward again
}

TEST(PlaybackTest, PlayPauseToggles) {
  Playback<int> playback({1, 2});
  playback.Play();
  EXPECT_EQ(playback.state(), PlayState::kPlaying);
  playback.Pause();
  EXPECT_EQ(playback.state(), PlayState::kPaused);
}

TEST(PlaybackTest, SeekClampsAndPauses) {
  Playback<int> playback({1, 2, 3});
  playback.Seek(99);
  EXPECT_EQ(playback.Current(), 3);
  playback.Seek(1);
  EXPECT_EQ(playback.Current(), 2);
  EXPECT_EQ(playback.state(), PlayState::kPaused);
}

TEST(PlaybackTest, RewindReturnsToStart) {
  Playback<int> playback({1, 2, 3});
  playback.StepForward();
  playback.StepForward();
  playback.StepForward();
  playback.Rewind();
  EXPECT_EQ(playback.position(), 0u);
  EXPECT_EQ(playback.state(), PlayState::kPaused);
}

TEST(PlaybackTest, RecordAppendsFrames) {
  Playback<int> playback;
  EXPECT_TRUE(playback.empty());
  playback.Record(5);
  playback.Record(6);
  EXPECT_EQ(playback.size(), 2u);
  EXPECT_EQ(playback.Current(), 5);
}

TEST(PlaybackTest, EmptyPlaybackIsSafe) {
  Playback<int> playback;
  EXPECT_FALSE(playback.StepForward());
  EXPECT_EQ(playback.state(), PlayState::kFinished);
  playback.Seek(3);  // no crash
  playback.Rewind();
  EXPECT_EQ(playback.state(), PlayState::kFinished);
}

// --------------------------------------------------------- ColorAssigner --

TEST(ColorAssignerTest, StableAssignment) {
  ColorAssigner colors(true);
  int c1 = colors.ColorOf(100);
  int c2 = colors.ColorOf(200);
  EXPECT_NE(c1, c2);
  EXPECT_EQ(colors.ColorOf(100), c1);  // stable on repeat
  EXPECT_EQ(colors.distinct_labels(), 2u);
}

TEST(ColorAssignerTest, WrapEmitsAnsiOnlyWhenEnabled) {
  ColorAssigner ansi(true);
  std::string wrapped = ansi.Wrap(1, "x");
  EXPECT_NE(wrapped.find("\x1b["), std::string::npos);
  EXPECT_NE(wrapped.find('x'), std::string::npos);

  ColorAssigner plain(false);
  EXPECT_EQ(plain.Wrap(1, "x"), "x");
}

// ---------------------------------------------------------------- Render --

TEST(RenderComponentsTest, GroupsByLabelAndMarksLost) {
  ComponentsFrame frame;
  frame.iteration = 3;
  frame.labels = {0, 0, 2, 2, 2};
  frame.lost_vertices = {2};
  frame.failure = true;
  frame.messages = 17;
  frame.converged_vertices = 4;
  ColorAssigner colors(false);
  std::string out = RenderComponents(frame, &colors);
  EXPECT_NE(out.find("iteration 3"), std::string::npos);
  EXPECT_NE(out.find("FAILURE"), std::string::npos);
  EXPECT_NE(out.find("components: 2"), std::string::npos);
  EXPECT_NE(out.find("2! "), std::string::npos);  // lost vertex marked
  EXPECT_NE(out.find("converged to final component: 4/5"),
            std::string::npos);
  EXPECT_NE(out.find("messages this iteration: 17"), std::string::npos);
}

TEST(RenderComponentsTest, NoGroundTruthOmitsConvergedLine) {
  ComponentsFrame frame;
  frame.labels = {0, 1};
  ColorAssigner colors(false);
  std::string out = RenderComponents(frame, &colors);
  EXPECT_EQ(out.find("converged to final"), std::string::npos);
}

TEST(RenderRanksTest, BarsProportionalToRank) {
  RanksFrame frame;
  frame.iteration = 5;
  frame.ranks = {0.5, 0.25, 0.25};
  frame.l1_diff = 0.125;
  std::string out = RenderRanks(frame, /*bar_width=*/20);
  // The max-rank vertex gets the full bar, half-rank gets half.
  EXPECT_NE(out.find(std::string(20, '#')), std::string::npos);
  EXPECT_NE(out.find(std::string(10, '#') + "\n"), std::string::npos);
  EXPECT_NE(out.find("0.125"), std::string::npos);
}

TEST(RenderRanksTest, LostVerticesFlagged) {
  RanksFrame frame;
  frame.ranks = {0.9, 0.1};
  frame.lost_vertices = {1};
  frame.failure = true;
  std::string out = RenderRanks(frame, 10);
  EXPECT_NE(out.find(" !"), std::string::npos);
  EXPECT_NE(out.find("FAILURE"), std::string::npos);
}

TEST(RenderRanksTest, ZeroRanksDoNotDivideByZero) {
  RanksFrame frame;
  frame.ranks = {0.0, 0.0};
  std::string out = RenderRanks(frame, 10);
  EXPECT_NE(out.find("v0"), std::string::npos);
}

// ---------------------------------------------------- partition utilities --

TEST(PartitionUtilTest, VerticesOfPartitionsMatchesHash) {
  const int parts = 4;
  auto lost = VerticesOfPartitions(32, parts, {1, 3});
  for (int64_t v = 0; v < 32; ++v) {
    int p = algos::PartitionOfVertex(v, parts);
    EXPECT_EQ(lost.count(v) > 0, p == 1 || p == 3) << "vertex " << v;
  }
}

TEST(PartitionUtilTest, DescribePartitionsCoversAllVertices) {
  std::string text = DescribePartitions(10, 3);
  for (int64_t v = 0; v < 10; ++v) {
    EXPECT_NE(text.find(std::string(" ").append(std::to_string(v))),
              std::string::npos);
  }
  EXPECT_NE(text.find("partition 2"), std::string::npos);
}

}  // namespace
}  // namespace flinkless::viz
